package repair

import (
	"slices"
	"testing"

	"debruijnring/topology"
)

// TestPatchRingDeltaMatchesWalk pins the FFC tier's two reports of one
// surgery: PatchRing/UnpatchRing hand back a Delta against the caller's
// ring, and the ring that Delta describes is the one the plain path
// walks off the successor rule.  The delta is followed with a map, so
// this checks the patcher's edit log independently of the session's
// apply.
func TestPatchRingDeltaMatchesWalk(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 8)
	rp := ForRing(net)
	ref := newFFCPatcher(net)
	ring, _, err := rp.Embed(topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ref.Embed(topology.FaultSet{}); err != nil {
		t.Fatal(err)
	}
	var faults topology.FaultSet
	for i, x := range []int{ring[40], ring[90], ring[150]} {
		batch := topology.NodeFaults(x)
		ch, o := rp.PatchRing(narrow(ring), faults, batch)
		want, wo := ref.Patch(batch)
		if o != Patched || wo != Patched || ch.Delta == nil {
			t.Fatalf("fault %d: outcomes %v/%v, delta %v", i, o, wo, ch.Delta != nil)
		}
		d := ch.Delta
		succ := make(map[int]int, len(ring))
		for j, v := range ring {
			succ[v] = ring[(j+1)%len(ring)]
		}
		for j, v := range d.Nodes {
			succ[v] = d.Succ[j]
		}
		got := []int{d.Start}
		for v := succ[d.Start]; v != d.Start && len(got) <= d.Length; v = succ[v] {
			got = append(got, v)
		}
		if !slices.Equal(got, want) || len(got) != d.Length {
			t.Fatalf("fault %d: delta ring of %d nodes differs from the walked ring of %d", i, len(got), len(want))
		}
		if len(d.Leave) != len(ring)-len(want) || len(d.Join) != 0 {
			t.Fatalf("fault %d: %d leaving, %d joining; ring shrank by %d", i, len(d.Leave), len(d.Join), len(ring)-len(want))
		}
		ring, faults = want, faults.Union(batch)
	}
}

// TestChainRingResyncsFromCallerRing: the chain keeps no ring of its
// own for PatchRing callers, so a splice result the caller rejected
// (and never re-embedded over) cannot leak into the next event — the
// splice tier resyncs from the ring the caller still holds.
func TestChainRingResyncsFromCallerRing(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 8)
	rp := ForRing(net)
	ring, _, err := rp.Embed(topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	root := ring[0]
	// The root's necklace is beyond the FFC tier: the splice tier cuts
	// it out.  The caller rejects that ring and keeps its own.
	ch, o := rp.PatchRing(narrow(ring), topology.FaultSet{}, topology.NodeFaults(root))
	if o != Spliced || slices.Contains(ch.Ring, root) {
		t.Fatalf("root fault: outcome %v, want Spliced without the root", o)
	}
	// 1ⁿ, like the root 0ⁿ, has a self-loop, so a full ring can drop it
	// by a direct link.
	x := net.Nodes() - 1
	ch, o = rp.PatchRing(narrow(ring), topology.FaultSet{}, topology.NodeFaults(x))
	if o != Spliced {
		t.Fatalf("second fault: outcome %v, want Spliced", o)
	}
	if !slices.Contains(ch.Ring, root) || !topology.VerifyRing(net, ch.Ring, topology.NodeFaults(x)) {
		t.Fatal("the splice tier patched the rejected ring instead of the caller's")
	}
	if len(ch.Ring) != len(ring)-1 {
		t.Fatalf("ring of %d after cutting one node from %d", len(ch.Ring), len(ring))
	}
}

// narrow converts a ring to the int32 ids PatchRing takes.
func narrow(ring []int) []int32 {
	out := make([]int32, len(ring))
	for i, v := range ring {
		out[i] = int32(v)
	}
	return out
}
