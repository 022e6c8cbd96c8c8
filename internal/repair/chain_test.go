package repair

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"debruijnring/topology"
)

// TestChainSpliceOnRootFault pins the tentpole case: a fault on the
// distinguished node's necklace — which the FFC tier always declines —
// is absorbed by the splice tier cutting the node out of the live ring,
// instead of forcing a cold re-embed.  The heal direction re-inserts it
// through the splice tier too, and a later Embed hands the ring back to
// the FFC tier.
func TestChainSpliceOnRootFault(t *testing.T) {
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
		root := ring[0]
		faults := topology.NodeFaults(root)
		r, o := p.Patch(faults)
		if o != Spliced {
			t.Fatalf("B(%d,%d): root fault outcome %v, want Spliced", tc.d, tc.n, o)
		}
		if !topology.VerifyRing(net, r, faults) {
			t.Fatalf("B(%d,%d): spliced ring fails verification", tc.d, tc.n)
		}
		if bound := net.Nodes() - tc.n; len(r) < bound {
			t.Fatalf("B(%d,%d): spliced ring %d below dⁿ−n = %d", tc.d, tc.n, len(r), bound)
		}

		// Heal: the splice tier owns the ring now, so the re-insertion
		// runs there as well.
		r, o = p.Unpatch(faults)
		if o != Spliced {
			t.Fatalf("B(%d,%d): root heal outcome %v, want Spliced", tc.d, tc.n, o)
		}
		if len(r) != net.Nodes() || !topology.VerifyRing(net, r, topology.FaultSet{}) {
			t.Fatalf("B(%d,%d): healed ring has %d of %d nodes or fails verification",
				tc.d, tc.n, len(r), net.Nodes())
		}

		// A successful Embed re-synchronizes the FFC tier: the next
		// ordinary fault patches structurally again.
		ring, _, err = p.Embed(topology.FaultSet{})
		if err != nil {
			t.Fatal(err)
		}
		if _, o := p.Patch(topology.NodeFaults(ring[len(ring)/2])); o != Patched {
			t.Errorf("B(%d,%d): post-embed patch outcome %v, want Patched (FFC re-adopted)", tc.d, tc.n, o)
		}
	}
}

// TestChainDeclinesToReembedWhenSpliceExhausted walks the full ladder:
// after a root splice on an otherwise fault-free ring there are no
// off-ring spares, so a second interior cut deterministically declines
// both tiers (FFC stale, no bypass material) and the caller's Embed
// re-adopts the ring for the FFC tier.
func TestChainDeclinesToReembedWhenSpliceExhausted(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 8)
	p := For(net)
	ring, _, err := p.Embed(topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	faults := topology.NodeFaults(ring[0])
	r, o := p.Patch(faults)
	if o != Spliced {
		t.Fatalf("root fault outcome %v, want Spliced", o)
	}
	add := topology.NodeFaults(r[len(r)/2])
	faults = faults.Union(add)
	if _, o := p.Patch(add); o != Unsupported {
		t.Fatalf("spare-free interior cut outcome %v, want Unsupported (tier 3)", o)
	}
	ring, _, err = p.Embed(faults)
	if err != nil {
		t.Fatal(err)
	}
	if !topology.VerifyRing(net, ring, faults) {
		t.Fatal("re-embedded ring fails verification")
	}
	if _, o := p.Patch(topology.NodeFaults(ring[len(ring)/3])); o != Patched {
		t.Errorf("post-re-embed patch outcome %v, want Patched (FFC re-adopted)", o)
	}
}

// TestChainBadBatchDoesNotPoison is the poisoning regression: an
// out-of-range batch must reject without invalidating, so the very next
// well-formed fault still patches locally instead of re-embedding.  The
// range check sits in the Patcher, so every topology's ladder rejects
// such a batch without touching its ring or fault set.
func TestChainBadBatchDoesNotPoison(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 8)
	p := For(net)
	ring, _, err := p.Embed(topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	if _, o := p.Patch(topology.NodeFaults(-1)); o != Unsupported {
		t.Fatalf("bad node batch outcome %v, want Unsupported", o)
	}
	if _, o := p.Patch(topology.EdgeFaults(topology.Edge{From: 3, To: net.Nodes()})); o != Unsupported {
		t.Fatalf("bad edge batch outcome %v, want Unsupported", o)
	}
	if _, o := p.Unpatch(topology.NodeFaults(net.Nodes() + 7)); o != Unsupported && o != Noop {
		t.Fatalf("bad heal batch outcome %v", o)
	}
	// A rejected Embed must not poison either.
	if _, _, err := p.Embed(topology.NodeFaults(-5)); err == nil {
		t.Fatal("Embed accepted an out-of-range fault")
	}
	if _, o := p.Patch(topology.NodeFaults(ring[len(ring)/2])); o != Patched {
		t.Errorf("patcher poisoned: post-rejection outcome %v, want Patched", o)
	}

	// The splice tier alone: a fresh Hamiltonian ring has no spares to
	// bypass through, so the check is that the bad batch leaves ring and
	// fault set exactly as they were, and a later heal still readmits.
	cube, _ := topology.NewHypercube(6)
	kautz, _ := topology.NewKautz(2, 4)
	for name, tc := range map[string]struct {
		net  topology.RingEmbedder
		good topology.FaultSet // a batch the embedder serves
	}{
		"hypercube": {cube, topology.NodeFaults(5)},
		"kautz":     {kautz, topology.EdgeFaults(topology.Edge{From: 0, To: firstSucc(kautz, 0)})},
	} {
		p := For(tc.net)
		if _, _, err := p.Embed(tc.good); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ring, faults := p.RingInts(), p.Faults()
		size := tc.net.Nodes()
		for _, bad := range []topology.FaultSet{
			topology.NodeFaults(-5, 1<<20),
			topology.NodeFaults(size),
			topology.EdgeFaults(topology.Edge{From: -1, To: 0}),
		} {
			if _, o := p.Patch(bad); o != Unsupported {
				t.Errorf("%s: out-of-range batch %v answered %v, want Unsupported", name, bad, o)
			}
			if _, o := p.Unpatch(bad); o != Unsupported {
				t.Errorf("%s: out-of-range heal %v answered %v, want Unsupported", name, bad, o)
			}
		}
		if got := p.Faults(); !slices.Equal(got.Nodes, faults.Nodes) || !slices.Equal(got.Edges, faults.Edges) {
			t.Errorf("%s: rejected batches moved the fault set to %v", name, got)
		}
		if !slices.Equal(p.RingInts(), ring) {
			t.Errorf("%s: rejected batches changed the ring", name)
		}
		if _, o := p.Unpatch(tc.good); o == Unsupported {
			t.Errorf("%s: patcher poisoned: heal answered %v", name, o)
		}
	}
}

// firstSucc is one successor of v, for picking a link of net.
func firstSucc(net topology.Network, v int) int { return net.Successors(v, nil)[0] }

// TestGenericRestorePersistsSplicability is the dilation regression: a
// snapshot of an unsplicable embedding (dilation-2 closed walk) must
// restore unsplicable even when the walk's nodes happen to be distinct.
// Only legacy journals without a snapshot fall back to the distinct-node
// heuristic.
func TestGenericRestorePersistsSplicability(t *testing.T) {
	net, err := topology.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	ring := []int{0, 1, 3, 2}      // distinct nodes: the heuristic alone would splice it
	p := &genericPatcher{net: net} // a dilation-2 embedding: not splicable
	state := &State{TierState: TierState{SpliceState: p.snapshot()}}
	if b, err := json.Marshal(state); err != nil || string(b) != `{"splicable":false}` {
		t.Fatalf("snapshot %s (%v) does not persist splicability", b, err)
	}

	q := For(net)
	if err := q.Restore(state, ring, topology.FaultSet{}); err != nil {
		t.Fatal(err)
	}
	if _, o := q.Patch(topology.NodeFaults(1)); o != Unsupported {
		t.Errorf("restored dilation-2 walk was spliced: outcome %v, want Unsupported", o)
	}

	// The legacy path (no snapshot) still restores splicable rings.
	q2 := For(net)
	if err := q2.Restore(nil, ring, topology.FaultSet{}); err != nil {
		t.Fatal(err)
	}
	if _, o := q2.Patch(topology.NodeFaults(1)); o != Patched {
		t.Errorf("legacy restore of a splicable ring: outcome %v, want Patched", o)
	}

	// And a splicable snapshot round-trips splicable.
	p2 := &genericPatcher{net: net, valid: true}
	st2 := &State{TierState: TierState{SpliceState: p2.snapshot()}}
	q3 := For(net)
	if err := q3.Restore(st2, ring, topology.FaultSet{}); err != nil {
		t.Fatal(err)
	}
	if _, o := q3.Patch(topology.NodeFaults(1)); o != Patched {
		t.Errorf("splicable snapshot restore: outcome %v, want Patched", o)
	}
}

// TestRestoreRejectsRepeatedNode: a ring that repeats a node is no
// ring to splice, so Restore refuses it on every topology — with no
// snapshot, with a splicable one and, on a chain, with a splice-owned
// snapshot (its bit set or cleared) or an FFC snapshot — and leaves the
// previous ring and faults installed.  Only the snapshot of an
// unsplicable embedding off De Bruijn may carry one: a shuffle-exchange
// dilation-2 closed walk revisits nodes by design.  A chain's cleared
// bit records only a declined splice, so its snapshot of a simple ring
// restores.
func TestRestoreRejectsRepeatedNode(t *testing.T) {
	db, _ := topology.NewDeBruijn(2, 6)
	kautz, _ := topology.NewKautz(2, 4)
	cube, _ := topology.NewHypercube(5)
	bf, _ := topology.NewButterfly(2, 3)
	se, _ := topology.NewShuffleExchange(2, 4)
	link := func(net topology.Network) topology.FaultSet {
		return topology.EdgeFaults(topology.Edge{From: 1, To: firstSucc(net, 1)})
	}
	for _, tc := range []struct {
		net    topology.RingEmbedder
		faults topology.FaultSet // a fault set the embedder serves
	}{
		{db, topology.NodeFaults(21)},
		{kautz, link(kautz)},
		{cube, topology.NodeFaults(5)},
		{bf, link(bf)},
		{se, topology.NodeFaults(5)},
	} {
		t.Run(tc.net.Name(), func(t *testing.T) {
			p := For(tc.net)
			ring, _, err := p.Embed(tc.faults)
			if err != nil {
				t.Fatal(err)
			}
			hash, faults := p.RingHash(), p.Faults()
			bad := slices.Clone(ring)
			bad[len(bad)/2] = bad[0]
			splicable := &SpliceState{Splicable: true}
			states := map[string]*State{
				"no snapshot":        nil,
				"splicable snapshot": {TierState: TierState{SpliceState: splicable}},
			}
			if _, ok := tc.net.(*topology.DeBruijn); ok {
				ffc, regenerates := p.Snapshot()
				if !regenerates {
					t.Fatal("a fresh chain embed does not snapshot its FFC tier")
				}
				states["FFC snapshot"] = ffc
				states["splice snapshot"] = &State{Tier: "splice", State: &TierState{SpliceState: splicable}}
				declined := &State{Tier: "splice", State: &TierState{SpliceState: &SpliceState{}}}
				states["declined splice snapshot"] = declined
				q := For(tc.net)
				if err := q.Restore(declined, ring, faults); err != nil || q.RingHash() != hash {
					t.Fatalf("a chain's declined splice snapshot of its own ring does not restore: %v", err)
				}
			}
			for name, st := range states {
				if err := p.Restore(st, bad, topology.FaultSet{}); err == nil {
					t.Errorf("%s: Restore accepted a ring repeating node %d", name, bad[0])
				}
				if !slices.Equal(p.RingInts(), ring) || p.RingHash() != hash ||
					!slices.Equal(p.Faults().Nodes, faults.Nodes) || !slices.Equal(p.Faults().Edges, faults.Edges) {
					t.Fatalf("%s: a refused Restore changed the installed ring or faults", name)
				}
			}
			if _, ok := tc.net.(*topology.ShuffleExchange); ok {
				st, _ := p.Snapshot()
				seen, repeats := make(map[int]bool), false
				for _, v := range ring {
					repeats = repeats || seen[v]
					seen[v] = true
				}
				if st.SpliceState == nil || st.SpliceState.Splicable || !repeats {
					t.Fatalf("shuffle-exchange embed is not a walk revisiting nodes under an unsplicable snapshot: %v", ring)
				}
				if err := p.Restore(st, ring, faults); err != nil {
					t.Fatalf("the unsplicable walk's own snapshot does not restore: %v", err)
				}
			}
		})
	}
}

// TestGenericMultiHopHeal pins the multi-hop bypass heal: a healed
// processor whose only surviving attachment needs an off-ring relay is
// re-inserted via the bounded BFS (the old direct-slot-only heal left
// it off-ring as a Noop).
func TestGenericMultiHopHeal(t *testing.T) {
	net, err := topology.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	p := For(net)
	// 4-ring 0-1-3-2 with node 5 faulty; 4, 6, 7 are off-ring spares.
	if err := p.Restore(nil, []int{0, 1, 3, 2}, topology.NodeFaults(5)); err != nil {
		t.Fatal(err)
	}
	r, o := p.Unpatch(topology.NodeFaults(5))
	if o != Readmitted {
		t.Fatalf("multi-hop heal outcome %v, want Readmitted", o)
	}
	// No hop u→w of the ring has both u–5 and 5–w links, so the heal
	// must have opened a hop into a bypass through a spare (1 → 5 → 7 →
	// 3 is the canonical one).
	if len(r) < 6 {
		t.Fatalf("healed ring %v has %d nodes, want ≥ 6 (v plus its relay)", r, len(r))
	}
	if !topology.VerifyRing(net, r, topology.FaultSet{}) {
		t.Fatalf("healed ring %v fails verification", r)
	}
	found := false
	for _, v := range r {
		if v == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("healed node 5 still off-ring")
	}
}

// TestChainSnapshotRestoreSpliceTier round-trips a splice-owned chain
// through Snapshot/Restore: the restored patcher must keep resolving in
// the splice tier with identical rings.
func TestChainSnapshotRestoreSpliceTier(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 8)
	p := For(net)
	ring, _, err := p.Embed(topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	faults := topology.NodeFaults(ring[0])
	r, o := p.Patch(faults)
	if o != Spliced {
		t.Fatalf("root fault outcome %v, want Spliced", o)
	}
	state, regen := p.Snapshot()
	if b, _ := json.Marshal(state); regen || !bytes.HasPrefix(b, []byte(`{"tier":"splice","state":{"splicable":true}}`)) {
		t.Fatalf("snapshot %s (regenerates %v) does not record the splice tier with its ring", b, regen)
	}
	if err := For(net).Restore(state, nil, faults); err == nil {
		t.Error("a splice snapshot restored without its ring")
	}

	q := For(net)
	if err := q.Restore(state, r, faults); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// The deterministic follow-up both must serve identically from the
	// splice tier: healing the spliced-out root re-inserts it.
	r1, o1 := p.Unpatch(faults)
	r2, o2 := q.Unpatch(faults)
	if o1 != o2 || o1 != Spliced {
		t.Fatalf("outcomes diverge after restore: %v vs %v (want Spliced)", o1, o2)
	}
	if !slices.Equal(r1, r2) {
		t.Error("spliced rings diverge after restore")
	}
	if len(r2) != net.Nodes() || !topology.VerifyRing(net, r2, topology.FaultSet{}) {
		t.Error("restored chain produced an invalid healed ring")
	}
}

// TestChainSnapshotRestoreFFCTier: an FFC-owned chain snapshot restores
// into the FFC tier, with the ring or regenerating it, and legacy
// bare-FFC-state snapshots still restore.
func TestChainSnapshotRestoreFFCTier(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 8)
	p := For(net)
	ring, _, err := p.Embed(topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	faults := topology.NodeFaults(ring[5])
	r, o := p.Patch(faults)
	if o != Patched {
		t.Fatalf("outcome %v, want Patched", o)
	}
	state, regen := p.Snapshot()
	if b, _ := json.Marshal(state); !regen || !bytes.HasPrefix(b, []byte(`{"tier":"ffc","state":{"root":`)) {
		t.Fatalf("snapshot %s (regenerates %v) does not record the ffc tier", b, regen)
	}
	q := For(net)
	if err := q.Restore(state, r, faults); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if _, o := q.Patch(topology.NodeFaults(r[9])); o != Patched {
		t.Errorf("restored chain patch outcome %v, want Patched", o)
	}

	// Without the ring, the FFC tier walks it, rotation included, and
	// the hash matches.
	q3 := For(net)
	if err := q3.Restore(state, nil, faults); err != nil {
		t.Fatalf("Restore without the ring: %v", err)
	}
	if !slices.Equal(q3.RingInts(), r) || q3.RingHash() != p.RingHash() {
		t.Error("regenerated ring or hash differs from the live one")
	}

	// Legacy journals persisted the bare FFC state; the chain must still
	// accept it.
	raw, err := json.Marshal(p.ffc.snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var legacy State
	if err := json.Unmarshal(raw, &legacy); err != nil {
		t.Fatal(err)
	}
	q2 := For(net)
	if err := q2.Restore(&legacy, r, faults); err != nil {
		t.Fatalf("legacy restore: %v", err)
	}
}
