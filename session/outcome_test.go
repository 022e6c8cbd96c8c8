package session

import (
	"testing"

	"debruijnring/internal/repair"
	"debruijnring/obs"
)

// outcome is one event's (direction, resolution) pair.
type outcome struct {
	dir direction
	res repair.Resolution
}

// TestRepairTotals feeds (direction, tier) outcome mixes through a
// Manager's per-event accounting and checks what GET /v1/stats reports
// from the registry: the per-outcome counts, the patch, unpatch and
// splice hit rates, and the session_repair_{ns,total}{dir,tier} series
// they are computed from.  The per-session Stats counters index the
// same outcomes.
func TestRepairTotals(t *testing.T) {
	var (
		faultLocal    = outcome{dirFault, repair.ResLocal}
		faultSplice   = outcome{dirFault, repair.ResSplice}
		faultReembed  = outcome{dirFault, repair.ResReembed}
		faultNoop     = outcome{dirFault, repair.ResNoop}
		faultRejected = outcome{dirFault, repair.ResRejected}
		healLocal     = outcome{dirHeal, repair.ResLocal}
		healSplice    = outcome{dirHeal, repair.ResSplice}
		healReembed   = outcome{dirHeal, repair.ResReembed}
		healNoop      = outcome{dirHeal, repair.ResNoop}
		healRejected  = outcome{dirHeal, repair.ResRejected}
	)
	cases := []struct {
		name     string
		events   []outcome
		appends  int64 // fleet_replica_appends_total
		failures int64 // fleet_replica_errors_total
		want     RepairTotals
	}{
		{
			name:   "fault ladder",
			events: []outcome{faultLocal, faultLocal, faultLocal, faultReembed, faultNoop, faultRejected},
			want:   RepairTotals{LocalRepairs: 3, Reembeds: 1, Noops: 1, Rejected: 1, PatchHitRate: 0.75},
		},
		{
			// Heals feed the unpatch hit rate without diluting the
			// fault-side patch hit rate.
			name:   "heal ladder",
			events: []outcome{healLocal, healLocal, healLocal, healLocal, healReembed, faultLocal, faultReembed},
			want: RepairTotals{LocalRepairs: 1, Reembeds: 1, LocalHeals: 4, HealReembeds: 1,
				PatchHitRate: 0.5, UnpatchHitRate: 0.8},
		},
		{
			// Splice resolutions count toward both directions' hit
			// rates, and the splice hit rate is 3 splices over 3 splices
			// plus 2 re-embeds.
			name:   "splice rung",
			events: []outcome{faultSplice, faultSplice, faultReembed, healSplice, healReembed, faultLocal},
			want: RepairTotals{LocalRepairs: 1, Reembeds: 1, HealReembeds: 1, SpliceRepairs: 2, SpliceHeals: 1,
				PatchHitRate: 0.75, UnpatchHitRate: 0.5, SpliceHitRate: 0.6},
		},
		{
			name:     "noops, rejections and replication",
			events:   []outcome{faultNoop, healNoop, healNoop, faultRejected, healRejected},
			appends:  5,
			failures: 2,
			want:     RepairTotals{Noops: 3, Rejected: 2, ReplicaAppends: 5, ReplicaErrors: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			m := NewManager(reg, Options{})
			reg.Counter("fleet_replica_appends_total").Add(tc.appends)
			reg.Counter("fleet_replica_errors_total").Add(tc.failures)
			var st Stats
			var want [numDirs][repair.NumResolutions]int64
			for _, o := range tc.events {
				m.metrics.record(o.dir, o.res, 1000)
				*st.count(o.dir, o.res)++
				want[o.dir][o.res]++
			}
			snap := reg.Snapshot()
			if got := TotalsFrom(snap); got != tc.want {
				t.Errorf("totals = %+v\n          want %+v", got, tc.want)
			}
			perSession := RepairTotals{
				LocalRepairs: st.LocalRepairs, Reembeds: st.Reembeds, Noops: st.Noops, Rejected: st.Rejected,
				LocalHeals: st.LocalHeals, HealReembeds: st.HealReembeds,
				SpliceRepairs: st.SpliceRepairs, SpliceHeals: st.SpliceHeals,
			}
			wantCounts := tc.want
			wantCounts.PatchHitRate, wantCounts.UnpatchHitRate, wantCounts.SpliceHitRate = 0, 0, 0
			wantCounts.ReplicaAppends, wantCounts.ReplicaErrors = 0, 0
			if perSession != wantCounts {
				t.Errorf("session stats = %+v, want %+v", st, wantCounts)
			}
			for d := range numDirs {
				for tr := range repair.NumResolutions {
					labels := []string{"dir", dirNames[d], "tier", tr.String()}
					if got := snap.Histograms[obs.Key("session_repair_ns", labels...)].Count; got != want[d][tr] {
						t.Errorf("session_repair_ns%v count = %d, want %d", labels, got, want[d][tr])
					}
					if got := snap.Counters[obs.Key("session_repair_total", labels...)]; got != want[d][tr] {
						t.Errorf("session_repair_total%v = %d, want %d", labels, got, want[d][tr])
					}
				}
			}
		})
	}

	// The label shape is part of the exposition contract.
	reg := obs.NewRegistry()
	NewManager(reg, Options{}).metrics.record(dirHeal, repair.ResSplice, 1000)
	if got := reg.Snapshot().Counters[`session_repair_total{dir="heal",tier="splice"}`]; got != 1 {
		t.Errorf(`session_repair_total{dir="heal",tier="splice"} = %d, want 1`, got)
	}
}

// TestRepairMetricsRecordNoAlloc backs the //ringlint:noalloc root on
// the per-event accounting with a measurement.
func TestRepairMetricsRecordNoAlloc(t *testing.T) {
	m := NewManager(obs.NewRegistry(), Options{})
	if allocs := testing.AllocsPerRun(100, func() { m.metrics.record(dirHeal, repair.ResReembed, 12345) }); allocs != 0 {
		t.Errorf("record allocates %.1f times per event", allocs)
	}
}
