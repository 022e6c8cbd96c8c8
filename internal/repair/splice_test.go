package repair

// Tests for the alloc-flat splice tier: pooled dense scratch must not
// change any splice decision, consecutive heal events must splice from
// the ring the last one left, and a single Patch batch that cuts the
// ring in several places must give every cut edge's bypass the full
// uncommitted candidate space (a failed or earlier attempt must not
// shrink the search for the next).

import (
	"runtime"
	"testing"

	"debruijnring/topology"
)

// TestGenericPatcherMultiCutBatch cuts two non-adjacent nodes out of a
// Q₄ ring in ONE batch, forcing two multi-hop bypasses in a single
// patch call.  Both detours must thread through the off-ring spares:
// the first commits interior nodes 14,12,13 and the second must still
// find 9,8,10 — which only works because bypass attempts never leak
// candidate marks into the shared used set before commit.
func TestGenericPatcherMultiCutBatch(t *testing.T) {
	net, err := topology.NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	p := For(net)
	ring := []int{0, 1, 3, 2, 6, 7, 5, 4} // Gray cycle; spares 8..15
	if err := p.Restore(nil, ring, topology.FaultSet{}); err != nil {
		t.Fatal(err)
	}
	faults := topology.NodeFaults(3, 7)
	got, outcome := p.Patch(faults)
	if outcome != Patched {
		t.Fatalf("outcome %v, want Patched", outcome)
	}
	if p.splice.touched != 2 {
		t.Errorf("touched = %d, want 2 (two independent cut edges)", p.splice.touched)
	}
	if !topology.VerifyRing(net, got, faults) {
		t.Fatalf("patched ring %v fails verification", got)
	}
	for _, v := range got {
		if v == 3 || v == 7 {
			t.Fatalf("patched ring %v still carries a faulty node", got)
		}
	}
	// Both arcs survive and both bypasses ran multi-hop (6—5 and 1—2 are
	// not hypercube edges, so each reconnect needs interior nodes).
	if len(got) < 6+2 {
		t.Errorf("patched ring %v too short for two multi-hop detours", got)
	}
}

// TestGenericPatcherMultiCutEdgeBatch is the link-fault analogue: two
// ring hops severed in one batch, two bypasses in one call.
func TestGenericPatcherMultiCutEdgeBatch(t *testing.T) {
	net, err := topology.NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	p := For(net)
	ring := []int{0, 1, 3, 2, 6, 7, 5, 4}
	if err := p.Restore(nil, ring, topology.FaultSet{}); err != nil {
		t.Fatal(err)
	}
	faults := topology.EdgeFaults(
		topology.Edge{From: 3, To: 2},
		topology.Edge{From: 5, To: 4},
	)
	got, outcome := p.Patch(faults)
	if outcome != Patched {
		t.Fatalf("outcome %v, want Patched", outcome)
	}
	if !topology.VerifyRing(net, got, faults) {
		t.Fatalf("patched ring %v fails verification", got)
	}
}

// TestOnRingIncrementalState walks a fault/heal lifecycle on the splice
// tier alone: a cut, two consecutive heals that each splice from the
// ring the previous event left, and a re-heal that is pure bookkeeping.
func TestOnRingIncrementalState(t *testing.T) {
	net, err := topology.NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	p := For(net)
	ring := []int{0, 1, 3, 2, 6, 7, 5, 4}
	// 8 and 10 start as healed-later faults, off-ring as faults must be.
	if err := p.Restore(nil, ring, topology.NodeFaults(8, 10)); err != nil {
		t.Fatal(err)
	}
	if _, o := p.Patch(topology.NodeFaults(7)); o != Patched {
		t.Fatalf("patch outcome %v", o)
	}
	if _, o := p.Unpatch(topology.NodeFaults(8)); o != Readmitted {
		t.Fatalf("heal 8 outcome %v", o)
	}
	if _, o := p.Unpatch(topology.NodeFaults(10)); o != Readmitted {
		t.Fatalf("heal 10 outcome %v", o)
	}
	if !topology.VerifyRing(net, p.RingInts(), topology.NodeFaults(7)) {
		t.Fatalf("ring %v fails verification after the heal sequence", p.RingInts())
	}

	// Re-healing an already-healed node is pure bookkeeping.
	if _, o := p.Unpatch(topology.NodeFaults(10)); o != Noop {
		t.Fatalf("re-heal outcome %v, want Noop", o)
	}
}

// TestSpliceSteadyStateBytes pins the allocation flattening: a warm
// B(2,10) splice round trip (the BenchmarkRepairSpliceFallback shape)
// must stay under 60KB — the two returned ring copies plus small
// fault-set bookkeeping — where the map-based tier burned ~320KB in
// O(ring)-sized builds per round.
func TestSpliceSteadyStateBytes(t *testing.T) {
	net, err := topology.NewDeBruijn(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := For(net)
	ring, _, err := p.Embed(topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	batch := topology.NodeFaults(ring[0]) // the root: the FFC tier declines it
	for i := 0; i < 3; i++ {
		p.Patch(batch)
		p.Unpatch(batch)
	}

	const rounds = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if _, o := p.Patch(batch); o != Spliced {
			t.Fatalf("patch outcome %v", o)
		}
		if _, o := p.Unpatch(batch); o != Spliced {
			t.Fatalf("unpatch outcome %v", o)
		}
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	if perRound > 60_000 {
		t.Errorf("steady-state splice round trip allocates %d bytes, want < 60000", perRound)
	}
}
