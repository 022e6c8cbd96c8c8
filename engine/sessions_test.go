package engine_test

import (
	"testing"

	"debruijnring/engine"
	"debruijnring/obs"
	"debruijnring/session"
	"debruijnring/topology"
)

// Session managers record their repair outcomes into the engine's
// registry (session.NewManager(eng.Registry(), ...)), and the sessions
// block of GET /v1/stats is session.TotalsFrom over that registry.
// These tests check the block an engine's registry yields for a given
// mix of (dir, tier) outcomes.

type repair struct{ dir, tier string }

var (
	faultLocal    = repair{"fault", "local"}
	faultSplice   = repair{"fault", "splice"}
	faultReembed  = repair{"fault", "reembed"}
	faultNoop     = repair{"fault", "noop"}
	faultRejected = repair{"fault", "rejected"}
	healLocal     = repair{"heal", "local"}
	healSplice    = repair{"heal", "splice"}
	healReembed   = repair{"heal", "reembed"}
)

// sessionTotals counts each repair in the engine's
// session_repair_total{dir,tier} series and returns the sessions block
// computed from the registry snapshot.
func sessionTotals(eng *engine.Engine, repairs ...repair) session.RepairTotals {
	reg := eng.Registry()
	for _, r := range repairs {
		reg.Counter("session_repair_total", "dir", r.dir, "tier", r.tier).Inc()
	}
	return session.TotalsFrom(reg.Snapshot())
}

func TestSessionRepairStats(t *testing.T) {
	eng := engine.New(engine.Options{})
	s := sessionTotals(eng, faultLocal, faultLocal, faultLocal, faultReembed, faultNoop, faultRejected)
	if s.LocalRepairs != 3 || s.Reembeds != 1 || s.Noops != 1 || s.Rejected != 1 {
		t.Errorf("session stats = %+v", s)
	}
	if s.PatchHitRate != 0.75 {
		t.Errorf("patch hit rate = %v, want 0.75", s.PatchHitRate)
	}
}

// TestSessionHealStats covers the heal direction: LocalHeals and
// HealReembeds feed unpatch_hit_rate without disturbing the fault-side
// patch hit rate.
func TestSessionHealStats(t *testing.T) {
	eng := engine.New(engine.Options{})
	s := sessionTotals(eng, healLocal, healLocal, healLocal, healLocal, healReembed, faultLocal, faultReembed)
	if s.LocalHeals != 4 || s.HealReembeds != 1 {
		t.Errorf("heal stats = %+v", s)
	}
	if s.UnpatchHitRate != 0.8 {
		t.Errorf("unpatch hit rate = %v, want 0.8", s.UnpatchHitRate)
	}
	if s.PatchHitRate != 0.5 {
		t.Errorf("patch hit rate = %v, want 0.5 (heals must not dilute it)", s.PatchHitRate)
	}
}

// TestSessionSpliceStats covers the middle rung: splice-tier
// resolutions count toward patch/unpatch hit rates and feed
// splice_hit_rate — the fraction of FFC-declined ring-changing events
// the splice tier caught before the re-embed cliff.
func TestSessionSpliceStats(t *testing.T) {
	eng := engine.New(engine.Options{})
	s := sessionTotals(eng, faultSplice, faultSplice, faultReembed, healSplice, healReembed, faultLocal)
	if s.SpliceRepairs != 2 || s.SpliceHeals != 1 {
		t.Errorf("splice stats = %+v", s)
	}
	if s.PatchHitRate != 0.75 { // (1 local + 2 splice) / 4 ring-changing fault events
		t.Errorf("patch hit rate = %v, want 0.75", s.PatchHitRate)
	}
	if s.UnpatchHitRate != 0.5 { // 1 splice heal / 2 ring-changing heal events
		t.Errorf("unpatch hit rate = %v, want 0.5", s.UnpatchHitRate)
	}
	if s.SpliceHitRate != 0.6 { // 3 splice / (3 splice + 2 reembed)
		t.Errorf("splice hit rate = %v, want 0.6", s.SpliceHitRate)
	}
}

// TestRecordRepairFeedsRegistry drives a live session whose manager
// shares the engine's registry and checks that each fault and heal
// event lands in that registry's session_repair_{ns,total}{dir,tier}
// series under the event's Kind and Repair.
func TestRecordRepairFeedsRegistry(t *testing.T) {
	eng := engine.New(engine.Options{})
	mgr := session.NewManager(eng.Registry(), session.Options{})
	defer mgr.Close()
	s, err := mgr.Create("feeds-registry", "debruijn(2,5)", topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	add, err := s.AddFaults(topology.NodeFaults(5))
	if err != nil {
		t.Fatal(err)
	}
	heal, err := s.RemoveFaults(topology.NodeFaults(5))
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.Registry().Snapshot()
	for _, ev := range []*session.Event{add, heal} {
		labels := []string{"dir", ev.Kind, "tier", ev.Repair}
		if got := snap.Histograms[obs.Key("session_repair_ns", labels...)].Count; got != 1 {
			t.Errorf("session_repair_ns%v count = %d, want 1", labels, got)
		}
		if got := snap.Counters[obs.Key("session_repair_total", labels...)]; got != 1 {
			t.Errorf("session_repair_total%v = %d, want 1", labels, got)
		}
	}
	if add.Kind != "fault" || heal.Kind != "heal" {
		t.Errorf("event kinds = %q, %q, want fault, heal", add.Kind, heal.Kind)
	}
	got := session.TotalsFrom(snap)
	if n := got.LocalRepairs + got.SpliceRepairs + got.Reembeds + got.Noops + got.Rejected +
		got.LocalHeals + got.SpliceHeals + got.HealReembeds; n != 2 {
		t.Errorf("sessions block counts %d events, want 2: %+v", n, got)
	}
}
