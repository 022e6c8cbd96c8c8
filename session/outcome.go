package session

import "debruijnring/obs"

// direction is what one lifecycle event does to a session's fault set.
type direction uint8

const (
	dirFault direction = iota // AddFaults: components fail
	dirHeal                   // RemoveFaults: repaired components rejoin
	numDirs
)

// dirNames are the "dir" metric labels, which double as Event.Kind.
var dirNames = [numDirs]string{"fault", "heal"}

// tier is the rung of the repair ladder that resolved an event.
type tier uint8

const (
	tierLocal    tier = iota // the structural (FFC) tier
	tierSplice               // the generic splice tier, after the structural tier declined
	tierReembed              // a full re-embed, after every local tier declined
	tierNoop                 // the batch left the ring unchanged
	tierRejected             // nothing, re-embed included, absorbed the batch
	numTiers
)

// tierNames are the "tier" metric labels and the Event.Repair strings.
var tierNames = [numTiers]string{"local", "splice", "reembed", "noop", "rejected"}

// outcome is how one fault or heal event was served.
type outcome struct {
	dir  direction
	tier tier
}

// String returns the journal's Event.Repair string; the direction is
// carried by Event.Kind.
func (o outcome) String() string { return tierNames[o.tier] }

// count returns the counter of o in st.  Noops and rejections are
// counted across both directions.
func (st *Stats) count(o outcome) *int64 {
	switch o.tier {
	case tierNoop:
		return &st.Noops
	case tierRejected:
		return &st.Rejected
	}
	if o.dir == dirHeal {
		return [...]*int64{&st.LocalHeals, &st.SpliceHeals, &st.HealReembeds}[o.tier]
	}
	return [...]*int64{&st.LocalRepairs, &st.SpliceRepairs, &st.Reembeds}[o.tier]
}

// repairMetrics are a Manager's per-outcome metrics, resolved once so
// the per-event path never builds a metric key.
type repairMetrics struct {
	ns          [numDirs][numTiers]*obs.Histogram // session_repair_ns{dir,tier}
	total       [numDirs][numTiers]*obs.Counter   // session_repair_total{dir,tier}
	journalErrs *obs.Counter                      // session_journal_errors_total
	// auditFailures counts snapshots skipped because the ring failed
	// the full VerifyRing audit: session_ring_audit_failures_total.
	auditFailures *obs.Counter
	// snapshotFallbacks counts restores whose latest journal snapshot
	// failed to restore, so the session replayed from creation:
	// session_restore_snapshot_fallbacks_total.
	snapshotFallbacks *obs.Counter
}

// newRepairMetrics resolves the metrics in reg; a nil reg leaves them
// nil, and the obs types make every update on them a no-op.
func newRepairMetrics(reg *obs.Registry) repairMetrics {
	reg.SetHelp("session_repair_ns", "session fault/heal event latency by direction and resolving repair tier")
	reg.SetHelp("session_repair_total", "session fault/heal events by direction and resolving repair tier")
	reg.SetHelp("session_journal_errors_total", "session journal appends that failed (session degraded to memory-only durability)")
	var m repairMetrics
	for d := range numDirs {
		for t := range numTiers {
			m.ns[d][t] = reg.Histogram("session_repair_ns", "dir", dirNames[d], "tier", tierNames[t])
			m.total[d][t] = reg.Counter("session_repair_total", "dir", dirNames[d], "tier", tierNames[t])
		}
	}
	reg.SetHelp("session_ring_audit_failures_total", "session snapshots skipped because the ring failed the full VerifyRing audit")
	m.journalErrs = reg.Counter("session_journal_errors_total")
	m.auditFailures = reg.Counter("session_ring_audit_failures_total")
	reg.SetHelp("session_restore_snapshot_fallbacks_total", "session restores that replayed from creation because the latest journal snapshot failed to restore")
	m.snapshotFallbacks = reg.Counter("session_restore_snapshot_fallbacks_total")
	return m
}

// record accounts one live event's outcome and end-to-end latency.
//
//ringlint:noalloc
func (m *repairMetrics) record(o outcome, elapsedNs int64) {
	m.ns[o.dir][o.tier].Observe(elapsedNs)
	m.total[o.dir][o.tier].Inc()
}

// RepairTotals aggregates the fault and heal outcomes of every session
// recording into one registry — the "sessions" block of GET /v1/stats:
// how often incremental repair beat the full re-embed, per direction.
type RepairTotals struct {
	LocalRepairs int64 `json:"local_repairs"`
	Reembeds     int64 `json:"reembeds"`
	Noops        int64 `json:"noops"`
	Rejected     int64 `json:"rejected"`
	LocalHeals   int64 `json:"local_heals"`
	HealReembeds int64 `json:"heal_reembeds"`
	// SpliceRepairs / SpliceHeals count the middle rung of the repair
	// ladder: batches the structural tier declined but the generic
	// splice tier absorbed by local bypass surgery, per direction.
	SpliceRepairs int64 `json:"splice_repairs"`
	SpliceHeals   int64 `json:"splice_heals"`
	// PatchHitRate is (LocalRepairs + SpliceRepairs) / (LocalRepairs +
	// SpliceRepairs + Reembeds): the fraction of ring-changing fault
	// events served without a full re-embed, by either local tier.
	PatchHitRate float64 `json:"patch_hit_rate"`
	// UnpatchHitRate is the heal-direction analogue, (LocalHeals +
	// SpliceHeals) / (LocalHeals + SpliceHeals + HealReembeds).
	UnpatchHitRate float64 `json:"unpatch_hit_rate"`
	// ReplicaAppends / ReplicaErrors are the fleet_replica_appends_total
	// and fleet_replica_errors_total counters a fleet shard's replicated
	// store keeps in the same registry: journal events shipped to the
	// replica, and the appends that failed (the shard degrades to
	// local-only journaling for those events: they survive a shard
	// restart but not a shard loss).  Zero on unreplicated processes.
	ReplicaAppends int64 `json:"replica_appends,omitempty"`
	ReplicaErrors  int64 `json:"replica_errors,omitempty"`
	// SpliceHitRate is (SpliceRepairs + SpliceHeals) / (SpliceRepairs +
	// SpliceHeals + Reembeds + HealReembeds): the fraction of
	// ring-changing events beyond the structural tier that the splice
	// tier caught before the re-embed cliff.  The denominator counts
	// every re-embed — including over-tolerance batches never offered
	// to a patcher and sessions on topologies with no structural tier —
	// so a low rate is a lead, not proof, of the chain degenerating to
	// re-embed-only; the authoritative gate is a controlled stream
	// (chaos -min-splice, as the nightly soak runs).
	SpliceHitRate float64 `json:"splice_hit_rate"`
}

// TotalsFrom computes the repair totals from a registry snapshot's
// session_repair_total{dir,tier} and fleet_replica_* counters.
func TotalsFrom(snap obs.Snapshot) RepairTotals {
	var n [numDirs][numTiers]int64
	for d := range numDirs {
		for t := range numTiers {
			n[d][t] = snap.Counters[obs.Key("session_repair_total", "dir", dirNames[d], "tier", tierNames[t])]
		}
	}
	fault, heal := n[dirFault], n[dirHeal]
	s := RepairTotals{
		LocalRepairs:   fault[tierLocal],
		Reembeds:       fault[tierReembed],
		Noops:          fault[tierNoop] + heal[tierNoop],
		Rejected:       fault[tierRejected] + heal[tierRejected],
		LocalHeals:     heal[tierLocal],
		HealReembeds:   heal[tierReembed],
		SpliceRepairs:  fault[tierSplice],
		SpliceHeals:    heal[tierSplice],
		ReplicaAppends: snap.Counters["fleet_replica_appends_total"],
		ReplicaErrors:  snap.Counters["fleet_replica_errors_total"],
	}
	if ringChanging := s.LocalRepairs + s.SpliceRepairs + s.Reembeds; ringChanging > 0 {
		s.PatchHitRate = float64(s.LocalRepairs+s.SpliceRepairs) / float64(ringChanging)
	}
	if healing := s.LocalHeals + s.SpliceHeals + s.HealReembeds; healing > 0 {
		s.UnpatchHitRate = float64(s.LocalHeals+s.SpliceHeals) / float64(healing)
	}
	if spliceable := s.SpliceRepairs + s.SpliceHeals + s.Reembeds + s.HealReembeds; spliceable > 0 {
		s.SpliceHitRate = float64(s.SpliceRepairs+s.SpliceHeals) / float64(spliceable)
	}
	return s
}
