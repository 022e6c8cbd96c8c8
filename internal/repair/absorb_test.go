package repair

import (
	"slices"
	"testing"

	"debruijnring/topology"
)

// tiers returns the rung names and outcomes of p's last trace.
func tiers(p *Patcher) []string {
	var out []string
	for _, st := range p.LastTrace() {
		out = append(out, st.Tier+":"+st.Outcome)
	}
	return out
}

// TestAbsorbLadder pins Absorb's own rungs around the local tiers: a
// batch that moves no fault is a noop with an empty trace, a De Bruijn
// fault set past f ≤ n skips the local tiers for a traced re-embed, and
// a batch the re-embed cannot serve is rejected with the ring and fault
// set untouched.
func TestAbsorbLadder(t *testing.T) {
	db, err := topology.NewDeBruijn(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := For(db)
	if _, _, err := p.Embed(topology.FaultSet{}); err != nil {
		t.Fatal(err)
	}
	a, err := p.Absorb(true, topology.NodeFaults(3, 3))
	if err != nil || a.Resolution != ResNoop || len(tiers(p)) != 0 || len(a.Batch.Nodes) != 1 {
		t.Fatalf("heal of a live node: %v %+v via %v, want a noop with an empty trace", err, a, tiers(p))
	}
	a, err = p.Absorb(false, topology.NodeFaults(9, 1, 2, 5, 6))
	if err != nil || a.Resolution != ResReembed || !slices.Equal(tiers(p), []string{"reembed:ok"}) {
		t.Fatalf("5 faults on B(2,4): %v %v via %v, want a re-embed alone", err, a.Resolution, tiers(p))
	}
	if got := p.Faults().Nodes; !slices.Equal(got, []int{1, 2, 5, 6, 9}) || !slices.Equal(a.Next.Nodes, got) {
		t.Fatalf("faults after the re-embed = %v, next %v", got, a.Next.Nodes)
	}

	cube, err := topology.NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	p = For(cube)
	ring, _, err := p.Embed(topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	hash := p.RingHash()
	// A Hamiltonian ring has no off-ring survivor to bypass through, and
	// the hypercube embedder takes no link faults.
	link := topology.EdgeFaults(topology.Edge{From: ring[0], To: ring[1]})
	a, err = p.Absorb(false, link)
	if err == nil || a.Resolution != ResRejected || !slices.Equal(tiers(p), []string{"splice:unsupported", "reembed:error"}) {
		t.Fatalf("ring link fault on Q4: %v %v via %v, want a rejection", err, a.Resolution, tiers(p))
	}
	if p.RingHash() != hash || !p.Faults().IsEmpty() || len(a.Next.Edges) != 1 {
		t.Fatalf("rejection moved the patcher: faults %v, next %v", p.Faults(), a.Next)
	}
}
