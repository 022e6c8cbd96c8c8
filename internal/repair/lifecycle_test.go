package repair

import (
	"math/rand"
	"testing"

	"debruijnring/topology"
)

// TestOutcomeStringRoundTrip pins String/ParseOutcome as inverses for
// every outcome, including the unpatch- and splice-era ones.
func TestOutcomeStringRoundTrip(t *testing.T) {
	outcomes := []Outcome{Unsupported, Noop, Patched, Reordered, Readmitted, Spliced}
	seen := map[string]bool{}
	for _, o := range outcomes {
		s := o.String()
		if seen[s] {
			t.Fatalf("duplicate outcome string %q", s)
		}
		seen[s] = true
		got, ok := ParseOutcome(s)
		if !ok || got != o {
			t.Errorf("ParseOutcome(%q) = %v, %v; want %v, true", s, got, ok, o)
		}
	}
	if _, ok := ParseOutcome("gibberish"); ok {
		t.Error("ParseOutcome accepted gibberish")
	}
	if Outcome(99).String() != "unsupported" {
		t.Error("unknown outcomes should render as unsupported")
	}
}

// TestFFCPatcherUnpatchReadmits streams a fault in and back out: the
// heal must be absorbed locally and restore the full dⁿ ring.
func TestFFCPatcherUnpatchReadmits(t *testing.T) {
	for _, tc := range []struct{ d, n int }{{2, 8}, {3, 5}, {4, 4}} {
		net, err := topology.NewDeBruijn(tc.d, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		p := For(net)
		ring, _, err := p.Embed(topology.FaultSet{})
		if err != nil {
			t.Fatal(err)
		}
		x := ring[len(ring)/3]
		faults := topology.NodeFaults(x)
		if _, o := p.Patch(faults); o != Patched {
			t.Fatalf("B(%d,%d): fault at %d: outcome %v, want Patched", tc.d, tc.n, x, o)
		}
		healed, o := p.Unpatch(faults)
		if o != Readmitted {
			t.Fatalf("B(%d,%d): heal of %d: outcome %v, want Readmitted", tc.d, tc.n, x, o)
		}
		if len(healed) != net.Nodes() {
			t.Errorf("B(%d,%d): healed ring has %d of %d nodes", tc.d, tc.n, len(healed), net.Nodes())
		}
		if !topology.VerifyRing(net, healed, topology.FaultSet{}) {
			t.Errorf("B(%d,%d): healed ring fails verification", tc.d, tc.n)
		}
	}
}

// TestFFCPatcherUnpatchPartialNecklace heals one processor of a
// multi-fault necklace: the necklace stays out until its last fault
// heals.
func TestFFCPatcherUnpatchPartialNecklace(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 6)
	g := net.Graph()
	// Find a non-loop node whose necklace removal patches locally (some
	// removals legitimately fall back, e.g. ones orphaning a period-1
	// neighbor).
	var p *Patcher
	var x, rot int
	patched := false
	for cand := 1; cand < net.Nodes() && !patched; cand++ {
		if g.RotL(cand) == cand {
			continue
		}
		p = For(net)
		if _, _, err := p.Embed(topology.FaultSet{}); err != nil {
			t.Fatal(err)
		}
		x, rot = cand, g.RotL(cand)
		// Two faults on the same necklace.
		if _, o := p.Patch(topology.NodeFaults(x, rot)); o == Patched {
			patched = true
		}
	}
	if !patched {
		t.Fatal("no candidate necklace patched locally")
	}
	// Healing only one keeps the necklace out (bookkeeping noop).
	if _, o := p.Unpatch(topology.NodeFaults(x)); o != Noop {
		t.Fatalf("partial heal: outcome %v, want Noop", o)
	}
	// Healing the other re-admits it.
	healed, o := p.Unpatch(topology.NodeFaults(rot))
	if o != Readmitted {
		t.Fatalf("final heal: outcome %v, want Readmitted", o)
	}
	if len(healed) != net.Nodes() {
		t.Errorf("healed ring has %d of %d nodes", len(healed), net.Nodes())
	}
	// Healing a fault that was never injected is a noop.
	if _, o := p.Unpatch(topology.NodeFaults(1, 2, 3)); o != Noop {
		t.Errorf("heal of non-faults: outcome %v, want Noop", o)
	}
}

// TestFFCPatcherAbsorbsOnRingLink pins the tentpole case: a faulted
// ring link between healthy endpoints is absorbed by star reordering
// (or star re-hanging) instead of a full re-embed.
func TestFFCPatcherAbsorbsOnRingLink(t *testing.T) {
	for _, tc := range []struct{ d, n int }{{2, 8}, {2, 10}, {3, 5}, {4, 4}} {
		net, err := topology.NewDeBruijn(tc.d, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		p := For(net)
		ring, _, err := p.Embed(topology.FaultSet{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(100*tc.d + tc.n)))
		var faults topology.FaultSet
		absorbed, reembeds := 0, 0
		for i := 0; i < 12; i++ {
			j := rng.Intn(len(ring))
			e := topology.Edge{From: ring[j], To: ring[(j+1)%len(ring)]}
			add := topology.EdgeFaults(e)
			faults = faults.Union(add)
			r, o := p.Patch(add)
			switch o {
			case Reordered:
				absorbed++
				ring = r
			case Noop:
				t.Fatalf("B(%d,%d) link %d: on-ring fault reported Noop", tc.d, tc.n, i)
			case Unsupported:
				reembeds++
				ring, _, err = p.Embed(faults)
				if err != nil {
					// Over the absorbable tolerance for this instance;
					// stop the stream here.
					i = 12
					ring = nil
				}
			}
			if ring == nil {
				break
			}
			if !topology.VerifyRing(net, ring, faults) {
				t.Fatalf("B(%d,%d) link %d (outcome %v): ring fails verification", tc.d, tc.n, i, o)
			}
			if len(ring) != net.Nodes() {
				t.Fatalf("B(%d,%d) link %d: link absorption dropped nodes: %d of %d",
					tc.d, tc.n, i, len(ring), net.Nodes())
			}
		}
		if absorbed == 0 {
			t.Errorf("B(%d,%d): no on-ring link fault was absorbed locally (%d re-embeds)",
				tc.d, tc.n, reembeds)
		}
		t.Logf("B(%d,%d): %d absorbed, %d re-embeds", tc.d, tc.n, absorbed, reembeds)
	}
}

// TestFFCPatcherOffRingLinkStaysNoop: a link the ring does not traverse
// is bookkeeping only.
func TestFFCPatcherOffRingLinkStaysNoop(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 6)
	p := For(net)
	ring, _, err := p.Embed(topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	succ := make(map[int]int, len(ring))
	for i, v := range ring {
		succ[v] = ring[(i+1)%len(ring)]
	}
	var off topology.Edge
	found := false
	var buf []int
	for u := 0; u < net.Nodes() && !found; u++ {
		for _, w := range net.Successors(u, buf) {
			if w != u && succ[u] != w {
				off = topology.Edge{From: u, To: w}
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no off-ring link found")
	}
	if _, o := p.Patch(topology.EdgeFaults(off)); o != Noop {
		t.Errorf("off-ring link fault: outcome %v, want Noop", o)
	}
	// Healing it back is a noop too.
	if _, o := p.Unpatch(topology.EdgeFaults(off)); o != Noop {
		t.Errorf("off-ring link heal: outcome %v, want Noop", o)
	}
}

// TestFFCPatcherMixedLifecycleRandom drives seeded random add/heal/link
// schedules at the patcher level, checking every intermediate ring and
// the dⁿ − nf bound under the CURRENT (shrinkable) fault count.
func TestFFCPatcherMixedLifecycleRandom(t *testing.T) {
	cases := []struct{ d, n int }{{2, 8}, {3, 5}, {4, 4}}
	for _, tc := range cases {
		net, err := topology.NewDeBruijn(tc.d, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		p := For(net)
		ring, _, err := p.Embed(topology.FaultSet{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(31*tc.d + tc.n)))
		var faults topology.FaultSet
		prev := faults
		spliced := false
		var buf []int
		for step := 0; step < 60; step++ {
			var add, remove topology.FaultSet
			switch k := rng.Intn(4); {
			case k == 0 && len(faults.Nodes) > 0:
				remove = topology.NodeFaults(faults.Nodes[rng.Intn(len(faults.Nodes))])
			case k == 1 && len(faults.Edges) > 0:
				remove = topology.EdgeFaults(faults.Edges[rng.Intn(len(faults.Edges))])
			case k == 2 && len(faults.Nodes) < tc.n:
				u := rng.Intn(net.Nodes())
				buf = net.Successors(u, buf)
				add = topology.EdgeFaults(topology.Edge{From: u, To: buf[rng.Intn(len(buf))]})
			case len(faults.Nodes) < tc.n:
				add = topology.NodeFaults(rng.Intn(net.Nodes()))
			default:
				continue
			}
			var r []int
			var o Outcome
			prev = faults
			if !remove.IsEmpty() {
				faults = faults.Minus(remove)
				r, o = p.Unpatch(remove)
			} else {
				faults = faults.Union(add)
				r, o = p.Patch(add)
			}
			switch o {
			case Patched, Reordered, Readmitted, Spliced:
				if o == Spliced {
					spliced = true
				}
				ring = r
			case Noop:
			case Unsupported:
				ring, _, err = p.Embed(faults)
				if err != nil {
					// Best-effort mixed embedding can reject a batch (a
					// faulty wire no reorder avoids); mirror the session:
					// keep the previous state and carry on.
					faults = prev
					ring, _, err = p.Embed(faults)
					if err != nil {
						t.Fatalf("B(%d,%d) step %d: re-embed of previous state: %v", tc.d, tc.n, step, err)
					}
				}
				spliced = false // the FFC tier re-adopted the ring
			}
			if !topology.VerifyRing(net, ring, faults) {
				t.Fatalf("B(%d,%d) step %d (outcome %v): ring fails verification", tc.d, tc.n, step, o)
			}
			if bound := net.Nodes() - tc.n*len(faults.Nodes); len(ring) < bound && !spliced {
				// The paper guarantees dⁿ − nf only for f ≤ d−2; beyond
				// it the survivor necklace graph can disconnect.  The
				// invariant that always holds (until the splice tier has
				// intentionally departed from the FFC shape — splice rings
				// keep necklace-mates the cold embed drops) is equivalence
				// with a cold embed of the same fault set.
				cold, _, coldErr := For(net).Embed(faults)
				if coldErr != nil || len(cold) != len(ring) {
					t.Fatalf("B(%d,%d) step %d: ring length %d below bound %d and != cold embed (%d, %v)",
						tc.d, tc.n, step, len(ring), bound, len(cold), coldErr)
				}
			}
		}
	}
}
