package repair

import (
	"math/rand"
	"testing"

	"debruijnring/topology"
)

// TestVerifyRunsMatchesVerifyRing is the oracle test of the run-walking
// audit sessions snapshot with: on a Patcher's ring held as one piece
// and as several (after local repairs), topology.VerifyRuns over the
// Patcher's runs must agree with topology.VerifyRing over its copy, on
// the intact ring and on every mutation of it — a duplicate node, an
// out-of-range node, a non-link hop, a bad wrap-around hop, a faulty
// node, a faulty link — placed at the ring's ends, at both sides of
// every seam between pieces and at random.  A wrong length must fail
// VerifyRuns on a ring VerifyRing accepts.  The hypercube, an adapter
// with its own cycle test, is audited on a materialized copy.
func TestVerifyRunsMatchesVerifyRing(t *testing.T) {
	db, _ := topology.NewDeBruijn(2, 8)
	cube, _ := topology.NewHypercube(6)
	for _, net := range []topology.RingEmbedder{db, cube} {
		t.Run(net.Name(), func(t *testing.T) {
			p := For(net)
			if net == topology.RingEmbedder(db) {
				if _, _, err := p.Embed(topology.FaultSet{}); err != nil {
					t.Fatal(err)
				}
			} else if err := p.Restore(nil, spareRing(t, net, net.Nodes()/2), topology.FaultSet{}); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			checkAudit(t, p, rng)
			if len(p.ring.pieces) != 1 {
				t.Fatalf("a fresh ring in %d pieces", len(p.ring.pieces))
			}
			for tries := 0; len(p.ring.pieces) < 4 && tries < 50; tries++ {
				ring := p.RingInts()
				a, err := p.Absorb(false, topology.NodeFaults(ring[1+rng.Intn(len(ring)-2)]))
				if err != nil || a.Resolution == ResReembed {
					continue
				}
				checkAudit(t, p, rng)
			}
			if len(p.ring.pieces) < 2 {
				t.Fatalf("local repairs left the ring in %d pieces; too few to test", len(p.ring.pieces))
			}
		})
	}
}

// checkAudit runs the mutations of TestVerifyRunsMatchesVerifyRing on
// p's ring, restoring it after each.
func checkAudit(t *testing.T, p *Patcher, rng *rand.Rand) {
	t.Helper()
	r, net := &p.ring, p.net
	faults := p.Faults()
	agree := func(what string, f topology.FaultSet, want bool) {
		t.Helper()
		ring := p.RingInts()
		got, oracle := topology.VerifyRuns(net, p.RingLen(), p.Runs(), f), topology.VerifyRing(net, ring, f)
		if got != oracle {
			t.Fatalf("%s (%d pieces): VerifyRuns = %v, VerifyRing = %v", what, len(r.pieces), got, oracle)
		}
		if oracle != want {
			t.Fatalf("%s (%d pieces): VerifyRing = %v, want %v: the mutation does not bite", what, len(r.pieces), oracle, want)
		}
	}
	// slot returns the buffer slot holding the node at rank i.
	slot := func(i int) *int32 {
		for j := len(r.pieces) - 1; ; j-- {
			if int(r.pieces[j].rank) <= i {
				return &r.run(j)[i-int(r.pieces[j].rank)]
			}
		}
	}
	set := func(i int, v int32) (undo func()) {
		s := slot(i)
		old := *s
		*s = v
		return func() { *s = old }
	}

	agree("intact ring", faults, true)
	k := r.k
	for _, n := range []int{k - 1, k + 1, 0} {
		if topology.VerifyRuns(net, n, p.Runs(), faults) {
			t.Fatalf("VerifyRuns accepts a ring of %d nodes as one of %d", k, n)
		}
	}

	ranks := []int{0, 1, k - 2, k - 1}
	for _, pc := range r.pieces[1:] {
		ranks = append(ranks, int(pc.rank)-1, int(pc.rank))
	}
	for range 4 {
		ranks = append(ranks, rng.Intn(k))
	}
	nonLinks := 0
	for _, i := range ranks {
		ring := p.RingInts()
		next := (i + 1) % k
		other := (i + 1 + rng.Intn(k-1)) % k // any rank but i

		undo := set(i, int32(ring[other]))
		agree("duplicate node", faults, false)
		undo()
		for _, v := range []int32{-1, int32(net.Nodes())} {
			undo = set(i, v)
			agree("node out of range", faults, false)
			undo()
		}

		// Swapping two neighbours keeps every node once but usually
		// breaks a hop.
		undoI, undoNext := set(i, int32(ring[next])), set(next, int32(ring[i]))
		oracle := topology.VerifyRing(net, p.RingInts(), faults)
		agree("swapped neighbours", faults, oracle)
		if !oracle {
			nonLinks++
		}
		undoNext()
		undoI()

		f := faults.Union(topology.NodeFaults(ring[i]))
		agree("faulty node", f, false)
		f = faults.Union(topology.EdgeFaults(topology.Edge{From: ring[i], To: ring[next]}))
		agree("faulty link", f, false)
		if topology.Undirected(net) {
			f = faults.Union(topology.EdgeFaults(topology.Edge{From: ring[next], To: ring[i]}))
			agree("faulty link, reversed on an undirected net", f, false)
		}
	}
	if nonLinks == 0 {
		t.Fatal("no swap broke a hop: the non-link mutation is untested")
	}

	// Dropping the last node leaves its predecessor's hop to the first
	// node as the wrap-around, which is no link here.
	r.k--
	agree("bad wrap-around hop", faults, false)
	r.k++
	agree("restored ring", faults, true)
}
