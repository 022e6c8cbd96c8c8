package debruijnring

import (
	"math/big"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 3); err == nil {
		t.Error("d = 1 should fail")
	}
	if _, err := New(3, 0); err == nil {
		t.Error("n = 0 should fail")
	}
	g, err := New(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.D() != 3 || g.N() != 3 || g.Nodes() != 27 || g.Edges() != 81 {
		t.Errorf("B(3,3) dims wrong: %d %d %d %d", g.D(), g.N(), g.Nodes(), g.Edges())
	}
}

func TestNodeLabelRoundTrip(t *testing.T) {
	g, _ := New(3, 3)
	id, err := g.Node("020")
	if err != nil {
		t.Fatal(err)
	}
	if g.Label(id) != "020" {
		t.Errorf("Label = %q", g.Label(id))
	}
	if got := g.AppendLabel([]byte("x"), id); string(got) != "x020" {
		t.Errorf("AppendLabel = %q", got)
	}
	if _, err := g.Node("99"); err == nil {
		t.Error("bad label should fail")
	}
	nb := g.Neighbors(id)
	if len(nb) != 3 {
		t.Errorf("Neighbors = %v", nb)
	}
}

func TestEmbedRingExample21(t *testing.T) {
	g, _ := New(3, 3)
	a, _ := g.Node("020")
	b, _ := g.Node("112")
	ring, stats, err := g.EmbedRing([]int{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if ring.Len() != 21 || stats.BStarSize != 21 {
		t.Errorf("ring length %d (B* %d), want 21", ring.Len(), stats.BStarSize)
	}
	if stats.LowerBound != 27-3*2 {
		t.Errorf("bound = %d", stats.LowerBound)
	}
	if !g.Verify(ring, []int{a, b}) {
		t.Error("ring fails verification")
	}
	if g.Verify(&Ring{Nodes: []int{0, 1}}, nil) {
		t.Error("bogus ring should fail verification")
	}
	if _, _, err := g.EmbedRing([]int{-1}); err == nil {
		t.Error("out-of-range fault should fail")
	}
}

func TestEmbedRingDistributedAgrees(t *testing.T) {
	g, _ := New(4, 3)
	a, _ := g.Node("013")
	seq, _, err := g.EmbedRing([]int{a})
	if err != nil {
		t.Fatal(err)
	}
	dist, stats, err := g.EmbedRingDistributed([]int{a})
	if err != nil {
		t.Fatal(err)
	}
	if dist.Len() != seq.Len() {
		t.Errorf("distributed ring %d vs sequential %d", dist.Len(), seq.Len())
	}
	if stats.Rounds <= 0 || stats.Messages <= 0 {
		t.Errorf("stats not populated: %+v", stats)
	}
	// O(K + n): with one fault the total is at most 5n + 2.
	if stats.Rounds > 5*g.N()+2 {
		t.Errorf("rounds %d exceed 5n + 2", stats.Rounds)
	}
}

func TestRouteAround(t *testing.T) {
	g, _ := New(4, 3)
	f, _ := g.Node("013")
	from, _ := g.Node("000")
	to, _ := g.Node("321")
	path, err := g.RouteAround(from, to, []int{f})
	if err != nil {
		t.Fatal(err)
	}
	if len(path)-1 > 2*g.N() {
		t.Errorf("path length %d exceeds 2n", len(path)-1)
	}
	if path[0] != from || path[len(path)-1] != to {
		t.Error("wrong endpoints")
	}
}

func TestDisjointHamiltonianCycles(t *testing.T) {
	g, _ := New(4, 3)
	rings, err := g.DisjointHamiltonianCycles()
	if err != nil {
		t.Fatal(err)
	}
	if len(rings) != Psi(4) {
		t.Errorf("%d rings, want ψ(4) = %d", len(rings), Psi(4))
	}
	seen := map[[2]int]bool{}
	for _, r := range rings {
		if !g.Verify(r, nil) || r.Len() != g.Nodes() {
			t.Fatal("ring invalid")
		}
		for i, v := range r.Nodes {
			e := [2]int{v, r.Nodes[(i+1)%r.Len()]}
			if seen[e] {
				t.Fatal("rings share a link")
			}
			seen[e] = true
		}
	}
	// A Hamiltonian ring's digit sequence is a De Bruijn sequence.
	seq := g.DeBruijnSequence(rings[0])
	if len(seq) != g.Nodes() {
		t.Errorf("sequence length %d", len(seq))
	}
}

func TestEmbedRingEdgeFaults(t *testing.T) {
	g, _ := New(5, 2)
	u, _ := g.Node("01")
	faults := []Edge{}
	for _, v := range g.Neighbors(u) {
		faults = append(faults, Edge{From: u, To: v})
		if len(faults) == MaxTolerableEdgeFaults(5) {
			break
		}
	}
	ring, err := g.EmbedRingEdgeFaults(faults)
	if err != nil {
		t.Fatal(err)
	}
	if !g.VerifyEdgeAvoidance(ring, faults) {
		t.Error("ring uses a faulty link")
	}
	// Non-edge faults are rejected.
	if _, err := g.EmbedRingEdgeFaults([]Edge{{From: 0, To: 24}}); err == nil {
		t.Error("non-edge should be rejected")
	}
}

func TestPsiPhiTables(t *testing.T) {
	if Psi(16) != 15 || Psi(13) != 7 || Psi(30) != 2 {
		t.Error("Psi spot checks failed")
	}
	if Phi(5) != 3 || Phi(12) != 3 || Phi(28) != 7 {
		t.Error("Phi spot checks failed")
	}
	if MaxTolerableEdgeFaults(28) != 8 {
		t.Error("MaxTolerableEdgeFaults(28) should be 8 (the Table 3.2 exception)")
	}
}

func TestModifiedDecomposition(t *testing.T) {
	g, _ := New(5, 2)
	rings, err := g.ModifiedDecomposition()
	if err != nil {
		t.Fatal(err)
	}
	if len(rings) != 5 {
		t.Errorf("%d rings, want d = 5", len(rings))
	}
	g2, _ := New(6, 2)
	if _, err := g2.ModifiedDecomposition(); err == nil {
		t.Error("composite d should fail")
	}
}

func TestCountingAPI(t *testing.T) {
	if NecklaceCount(2, 12).Cmp(big.NewInt(352)) != 0 {
		t.Error("NecklaceCount(2,12) ≠ 352")
	}
	if NecklaceCountByLength(2, 12, 6).Cmp(big.NewInt(9)) != 0 {
		t.Error("length-6 count ≠ 9")
	}
	if NecklaceCountByWeight(2, 12, 4).Cmp(big.NewInt(43)) != 0 {
		t.Error("weight-4 count ≠ 43")
	}
	if NecklaceCountByWeightLength(2, 12, 4, 6).Cmp(big.NewInt(2)) != 0 {
		t.Error("weight-4 length-6 count ≠ 2")
	}
	if NecklaceCountByType(2, 12, []int{8, 4}).Cmp(big.NewInt(43)) != 0 {
		t.Error("type [8,4] count ≠ 43")
	}
	g, _ := New(3, 4)
	x, _ := g.Node("1120")
	rep, length := g.Necklace(x)
	if g.Label(rep) != "0112" || length != 4 {
		t.Errorf("Necklace(1120) = %s, %d", g.Label(rep), length)
	}
	if len(g.NecklaceMembers(x)) != 4 {
		t.Error("NecklaceMembers size wrong")
	}
}

func TestButterflyAPI(t *testing.T) {
	f, err := NewButterfly(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.Nodes() != 24 {
		t.Errorf("F(2,3) nodes = %d", f.Nodes())
	}
	if _, err := NewButterfly(1, 3); err == nil {
		t.Error("d = 1 should fail")
	}
	rings, err := f.DisjointHamiltonianCycles()
	if err != nil {
		t.Fatal(err)
	}
	if len(rings) != Psi(2) {
		t.Errorf("%d rings, want ψ(2) = 1", len(rings))
	}
	if !f.Verify(rings[0], nil) {
		t.Error("butterfly ring invalid")
	}
	lvl, col := f.Split(f.Node(1, 5))
	if lvl != 1 || col != 5 {
		t.Error("Node/Split mismatch")
	}
	if f.Label(f.Node(0, 0)) != "(0,000)" {
		t.Errorf("Label = %q", f.Label(f.Node(0, 0)))
	}
	if got := f.AppendLabel([]byte("x"), f.Node(2, 6)); string(got) != "x(2,110)" {
		t.Errorf("AppendLabel = %q", got)
	}
	// Edge-fault embedding with one faulty link.
	u := f.Node(0, 3)
	ring0, err := f.EmbedRingEdgeFaults(nil)
	if err != nil {
		t.Fatal(err)
	}
	var faulty Edge
	for i, v := range ring0.Nodes {
		if v == u {
			faulty = Edge{From: u, To: ring0.Nodes[(i+1)%len(ring0.Nodes)]}
		}
	}
	_ = faulty // ψ(2)−1 = 0 and φ(2) = 0: no guarantee for d = 2; use d = 3 below.

	f3, _ := NewButterfly(3, 2)
	ringA, err := f3.EmbedRingEdgeFaults(nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := Edge{From: ringA.Nodes[0], To: ringA.Nodes[1]}
	ringB, err := f3.EmbedRingEdgeFaults([]Edge{bad})
	if err != nil {
		t.Fatal(err)
	}
	if !f3.Verify(ringB, []Edge{bad}) {
		t.Error("butterfly edge-fault ring invalid")
	}
}

func TestAllToAllBroadcastAPI(t *testing.T) {
	g, _ := New(4, 2)
	rings, err := g.DisjointHamiltonianCycles()
	if err != nil {
		t.Fatal(err)
	}
	single, err := g.AllToAllBroadcast(rings[:1], 12)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := g.AllToAllBroadcast(rings, 12)
	if err != nil {
		t.Fatal(err)
	}
	if multi.TimeUnits*3 != single.TimeUnits {
		t.Errorf("expected 3× speedup: single %d, multi %d", single.TimeUnits, multi.TimeUnits)
	}
}

func TestShuffleExchangeAPI(t *testing.T) {
	g, _ := New(3, 3)
	a, _ := g.Node("020")
	b, _ := g.Node("112")
	se, err := EmbedRingShuffleExchange(3, 3, []int{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(se.Ring) != 21 {
		t.Errorf("SE ring carries %d processors, want 21", len(se.Ring))
	}
	if se.Dilation() != 2 {
		t.Errorf("dilation = %d, want 2", se.Dilation())
	}
	if len(se.Walk) > 2*len(se.Ring) {
		t.Errorf("walk %d longer than 2×ring", len(se.Walk))
	}
}

func TestHypercubeBaselineAPI(t *testing.T) {
	// The Chapter 2 comparison: Q_12, f = 2 → ring of length 4092;
	// B(4,6), f = 2 → ring of length ≥ 4084, with 16384 vs 24576 links.
	cycle, err := HypercubeRing(12, []int{7, 77})
	if err != nil {
		t.Fatal(err)
	}
	if len(cycle) < 4092 {
		t.Errorf("hypercube ring %d < 4092", len(cycle))
	}
	if HypercubeEdges(12) != 24576 {
		t.Errorf("Q_12 edges = %d", HypercubeEdges(12))
	}
	g, _ := New(4, 6)
	if g.Edges() != 16384 {
		t.Errorf("B(4,6) edges = %d", g.Edges())
	}
	ring, _, err := g.EmbedRing([]int{7, 77})
	if err != nil {
		t.Fatal(err)
	}
	if ring.Len() < 4084 {
		t.Errorf("De Bruijn ring %d < 4084", ring.Len())
	}
}
