package repair

import (
	"slices"
	"testing"

	"debruijnring/topology"
)

// TestPatchRingDeltaMatchesWalk pins the FFC tier's delta against the
// walk oracle: the ring the Patcher holds after applying the delta is
// the one the FFC tier alone walks off its successor rule, and the delta
// followed with a map gives the same ring — so this checks the tier's
// edit log independently of Ring.apply.
func TestPatchRingDeltaMatchesWalk(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 8)
	p := For(net)
	ref := newFFCPatcher(net)
	ring, _, err := p.Embed(topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ref.Embed(topology.FaultSet{}); err != nil {
		t.Fatal(err)
	}
	for i, x := range []int{ring[40], ring[90], ring[150]} {
		batch := topology.NodeFaults(x)
		got, o := p.Patch(batch)
		want, wo := ref.Patch(batch)
		if o != Patched || wo != Patched {
			t.Fatalf("fault %d: outcomes %v/%v", i, o, wo)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("fault %d: owned ring of %d nodes differs from the walked ring of %d", i, len(got), len(want))
		}
		d := &p.ffc.out
		succ := make(map[int]int, len(ring))
		for j, v := range ring {
			succ[v] = ring[(j+1)%len(ring)]
		}
		for j, v := range d.Nodes {
			succ[v] = d.Succ[j]
		}
		followed := []int{d.Start}
		for v := succ[d.Start]; v != d.Start && len(followed) <= d.Length; v = succ[v] {
			followed = append(followed, v)
		}
		if !slices.Equal(followed, want) || len(followed) != d.Length {
			t.Fatalf("fault %d: delta ring of %d nodes differs from the walked ring of %d", i, len(followed), len(want))
		}
		if len(d.Leave) != len(ring)-len(want) || len(d.Join) != 0 {
			t.Fatalf("fault %d: %d leaving, %d joining; ring shrank by %d", i, len(d.Leave), len(d.Join), len(ring)-len(want))
		}
		ring = want
	}
}

// TestChainRingResyncsFromCallerRing: the splice tier keeps a private
// copy of the ring, but the Patcher's ring is the single source of
// truth.  A splice result the ring never accepted (here the private
// copy is cut behind the Patcher's back) must not leak into the next
// batch — the splice tier resyncs from the owned ring.
func TestChainRingResyncsFromCallerRing(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 8)
	p := For(net)
	ring, _, err := p.Embed(topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	root := ring[0]
	// The root's necklace is beyond the FFC tier: the splice tier cuts
	// it out, and owns the ring from now on.
	r, o := p.Patch(topology.NodeFaults(root))
	if o != Spliced || slices.Contains(r, root) {
		t.Fatalf("root fault: outcome %v, want Spliced without the root", o)
	}
	// 1ⁿ, like the root 0ⁿ, has a self-loop, so the ring can drop it by
	// a direct link.  Cut it from the splice tier's copy only: a result
	// the owned ring never took.
	x := net.Nodes() - 1
	if o := p.splice.patch(topology.NodeFaults(x)); o != Patched {
		t.Fatalf("private cut: outcome %v, want Patched", o)
	}
	r, o = p.Patch(topology.NodeFaults(x))
	if o != Spliced {
		t.Fatalf("second fault: outcome %v, want Spliced (the rejected cut leaked into the splice tier)", o)
	}
	if len(r) != len(ring)-2 || !topology.VerifyRing(net, r, topology.NodeFaults(root, x)) {
		t.Fatalf("ring of %d after cutting two nodes from %d, or invalid", len(r), len(ring))
	}
}
