package debruijn

import (
	"testing"
)

func parse(t *testing.T, g *Graph, s string) int {
	t.Helper()
	x, err := g.Parse(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return x
}

func TestSuccessorsPredecessors(t *testing.T) {
	g := New(2, 3)
	x := parse(t, g, "010")
	succ := g.Successors(x, nil)
	if len(succ) != 2 || g.String(succ[0]) != "100" || g.String(succ[1]) != "101" {
		t.Errorf("successors of 010 = %v", succ)
	}
	pred := g.Predecessors(x, nil)
	if len(pred) != 2 || g.String(pred[0]) != "001" || g.String(pred[1]) != "101" {
		t.Errorf("predecessors of 010 = %v", pred)
	}
	// Consistency: y ∈ succ(x) ⇔ x ∈ pred(y), over the whole graph.
	g2 := New(3, 3)
	var sbuf, pbuf []int
	for x := 0; x < g2.Size; x++ {
		sbuf = g2.Successors(x, sbuf)
		for _, y := range sbuf {
			found := false
			pbuf = g2.Predecessors(y, pbuf)
			for _, z := range pbuf {
				if z == x {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s ∈ succ(%s) but not vice versa", g2.String(y), g2.String(x))
			}
		}
	}
}

func TestLoops(t *testing.T) {
	g := New(3, 4)
	loops := 0
	for x := 0; x < g.Size; x++ {
		if g.HasLoop(x) {
			loops++
			if x != g.Repeat(g.Digit(x, 1)) {
				t.Errorf("unexpected loop at %s", g.String(x))
			}
		}
	}
	if loops != g.D {
		t.Errorf("%d loops, want %d", loops, g.D)
	}
	if g.NumEdges() != g.D*g.Size {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
}

// TestFigure11 checks the structure of B(2,3) against Figure 1.1(a):
// in/out degree 2 everywhere, loops at 000 and 111, and spot-checked edges.
func TestFigure11(t *testing.T) {
	g := New(2, 3)
	if g.Size != 8 {
		t.Fatalf("B(2,3) has %d nodes", g.Size)
	}
	edges := map[[2]string]bool{}
	var buf []int
	for x := 0; x < g.Size; x++ {
		buf = g.Successors(x, buf)
		for _, y := range buf {
			edges[[2]string{g.String(x), g.String(y)}] = true
		}
	}
	for _, e := range [][2]string{
		{"000", "000"}, {"000", "001"}, {"001", "010"}, {"001", "011"},
		{"100", "000"}, {"100", "001"}, {"110", "101"}, {"111", "111"},
	} {
		if !edges[e] {
			t.Errorf("edge %v missing from B(2,3)", e)
		}
	}
	if edges[[2]string{"000", "010"}] {
		t.Error("B(2,3) must not contain edge 000→010")
	}
	// B(2,4) (Figure 1.1(b)) has 16 nodes and 32 edges.
	g4 := New(2, 4)
	if g4.Size != 16 || g4.NumEdges() != 32 {
		t.Errorf("B(2,4): %d nodes, %d edges", g4.Size, g4.NumEdges())
	}
}

// TestFigure12 checks the UB(d,n) degree census of §1.2 [PR82]: d nodes of
// degree 2d−2, d(d−1) nodes of degree 2d−1, dⁿ − d² of degree 2d.
func TestFigure12(t *testing.T) {
	for _, tc := range []struct{ d, n int }{{2, 3}, {2, 4}, {3, 3}, {3, 4}, {4, 3}, {2, 5}} {
		g := New(tc.d, tc.n)
		census := map[int]int{}
		for x := 0; x < g.Size; x++ {
			census[g.UndirectedDegree(x)]++
		}
		d := tc.d
		want := map[int]int{}
		want[2*d-2] += d
		want[2*d-1] += d * (d - 1)
		want[2*d] += g.Size - d*d
		for deg, cnt := range want {
			if cnt == 0 {
				continue
			}
			if census[deg] != cnt {
				t.Errorf("UB(%d,%d): %d nodes of degree %d, want %d (census %v)",
					tc.d, tc.n, census[deg], deg, cnt, census)
			}
		}
	}
	// UB(2,3) concretely (Figure 1.2): 000 and 111 have degree 2.
	g := New(2, 3)
	if g.UndirectedDegree(parse(t, g, "000")) != 2 {
		t.Error("deg(000) in UB(2,3) should be 2")
	}
	if g.UndirectedDegree(parse(t, g, "010")) != 3 {
		t.Error("deg(010) in UB(2,3) should be 3")
	}
}

func TestIsCycle(t *testing.T) {
	g := New(3, 3)
	// [0,1,2,1,2] denotes the 5-cycle (012,121,212,120,201) (§3.1).
	nodes := g.NodesOfSequence([]int{0, 1, 2, 1, 2})
	want := []string{"012", "121", "212", "120", "201"}
	for i, w := range want {
		if g.String(nodes[i]) != w {
			t.Fatalf("node %d = %s, want %s", i, g.String(nodes[i]), w)
		}
	}
	if !g.IsCycle(nodes) {
		t.Error("(012,121,212,120,201) should be a cycle")
	}
	if !g.IsCycleSequence([]int{0, 1, 2, 1, 2}) {
		t.Error("[0,1,2,1,2] should denote a cycle")
	}
	// Repeated window ⇒ not a cycle.
	if g.IsCycleSequence([]int{0, 1, 2, 0, 1, 2}) {
		t.Error("[0,1,2,0,1,2] repeats windows; not a cycle")
	}
	// Wrong adjacency ⇒ not a cycle.
	if g.IsCycle([]int{0, 5}) {
		t.Error("arbitrary pair should not be a cycle")
	}
	if g.IsCycle(nil) {
		t.Error("empty sequence is not a cycle")
	}
	// Loop node: length-1 cycle.
	if !g.IsCycle([]int{g.Repeat(1)}) {
		t.Error("loop node should form a 1-cycle")
	}
	if g.IsCycle([]int{parse(t, g, "012")}) {
		t.Error("non-loop node is not a 1-cycle")
	}
	// Round trip sequence ↔ nodes.
	seq := g.SequenceOfNodes(nodes)
	for i, c := range []int{0, 1, 2, 1, 2} {
		if seq[i] != c {
			t.Fatalf("SequenceOfNodes = %v", seq)
		}
	}
}

func TestEdgeDisjoint(t *testing.T) {
	g := New(2, 3)
	c1 := g.NodesOfSequence([]int{0, 0, 1, 1, 1, 0, 1}) // maximal cycle
	if !g.IsCycle(c1) {
		t.Fatal("c1 should be a cycle")
	}
	c2 := g.NodesOfSequence([]int{1, 1, 0, 0, 0, 1, 0}) // its complement shift
	if !g.IsCycle(c2) {
		t.Fatal("c2 should be a cycle")
	}
	if !g.EdgeDisjoint(c1, c2) {
		t.Error("C and 1+C should be edge-disjoint")
	}
	if g.EdgeDisjoint(c1, c1) {
		t.Error("a cycle is not edge-disjoint from itself")
	}
}

func TestLineGraphCorrespondence(t *testing.T) {
	// The cycle (012,122,221,212,120,201) in B(3,3) corresponds to the
	// circuit (01,12,22,21,12,20) in B(3,2) (§2.5).
	g3 := New(3, 3)
	g2 := New(3, 2)
	cycle := g3.NodesOfSequence([]int{0, 1, 2, 2, 1, 2})
	wantCycle := []string{"012", "122", "221", "212", "120", "201"}
	for i, w := range wantCycle {
		if g3.String(cycle[i]) != w {
			t.Fatalf("cycle node %d = %s, want %s", i, g3.String(cycle[i]), w)
		}
	}
	if !g3.IsCycle(cycle) {
		t.Fatal("should be a cycle")
	}
	circuit := g3.CycleToCircuit(g2, cycle)
	wantCircuit := []string{"01", "12", "22", "21", "12", "20"}
	for i, w := range wantCircuit {
		if g2.String(circuit[i]) != w {
			t.Errorf("circuit node %d = %s, want %s", i, g2.String(circuit[i]), w)
		}
	}
	// Consecutive circuit nodes are adjacent in B(3,2), and the edges
	// (coded as 3-tuples) are exactly the cycle's nodes.
	for i := range circuit {
		j := (i + 1) % len(circuit)
		if !g2.IsEdge(circuit[i], circuit[j]) {
			t.Errorf("circuit step %d not an edge", i)
		}
		if g3.LineGraphNode(g2, circuit[i], circuit[j]) != cycle[i] {
			t.Errorf("line graph label mismatch at %d", i)
		}
	}
}

func TestLongestCycleFullGraph(t *testing.T) {
	// With no faults the longest cycle is Hamiltonian (De Bruijn's
	// theorem); check on B(2,3) and B(3,2).
	for _, tc := range []struct{ d, n int }{{2, 3}, {3, 2}} {
		g := New(tc.d, tc.n)
		c := g.LongestCycleAvoiding(nil)
		if len(c) != g.Size {
			t.Errorf("B(%d,%d): longest cycle %d, want %d", tc.d, tc.n, len(c), g.Size)
		}
		if !g.IsHamiltonian(c) {
			t.Errorf("B(%d,%d): result not Hamiltonian", tc.d, tc.n)
		}
	}
}

func TestPancyclicSmall(t *testing.T) {
	// B(d,n) is pancyclic [Lem71]: cycles of every length 1..dⁿ exist.
	g := New(2, 4)
	for k := 1; k <= g.Size; k++ {
		c := g.FindCycleOfLength(k, nil)
		if c == nil {
			t.Fatalf("B(2,4): no cycle of length %d found", k)
		}
		if len(c) != k || !g.IsCycle(c) {
			t.Fatalf("B(2,4): invalid cycle of length %d", k)
		}
	}
	if g.FindCycleOfLength(g.Size+1, nil) != nil {
		t.Error("cycle longer than the graph should not exist")
	}
}

func TestLongestCycleAvoidsFaults(t *testing.T) {
	g := New(3, 2)
	faults := map[int]bool{parse(t, g, "00"): true, parse(t, g, "12"): true}
	c := g.LongestCycleAvoiding(faults)
	if !g.IsCycle(c) {
		t.Fatal("result must be a cycle")
	}
	for _, x := range c {
		if faults[x] {
			t.Fatalf("cycle visits faulty node %s", g.String(x))
		}
	}
	if len(c) < g.Size-4 {
		t.Errorf("longest fault-free cycle too short: %d", len(c))
	}
}

func BenchmarkLongestCycleB23(b *testing.B) {
	g := New(2, 3)
	for i := 0; i < b.N; i++ {
		g.LongestCycleAvoiding(nil)
	}
}

// undirectedDegreeReference is the pre-rewrite map-based implementation,
// kept as the oracle for the arithmetic neighbor-merging version.
func undirectedDegreeReference(g *Graph, x int) int {
	neighbors := make(map[int]bool)
	var buf []int
	for _, y := range g.Successors(x, buf) {
		if y != x {
			neighbors[y] = true
		}
	}
	buf = g.Predecessors(x, nil)
	for _, y := range buf {
		if y != x {
			neighbors[y] = true
		}
	}
	return len(neighbors)
}

func TestUndirectedDegreeMatchesReference(t *testing.T) {
	for _, tc := range []struct{ d, n int }{{2, 1}, {3, 1}, {2, 2}, {2, 6}, {3, 4}, {4, 3}, {5, 2}, {7, 2}} {
		g := New(tc.d, tc.n)
		for x := 0; x < g.Size; x++ {
			if got, want := g.UndirectedDegree(x), undirectedDegreeReference(g, x); got != want {
				t.Fatalf("B(%d,%d): UndirectedDegree(%s) = %d, want %d", tc.d, tc.n, g.String(x), got, want)
			}
		}
	}
}

func TestUndirectedDegreeAllocFree(t *testing.T) {
	g := New(4, 5)
	allocs := testing.AllocsPerRun(100, func() {
		for x := 0; x < 64; x++ {
			g.UndirectedDegree(x)
		}
	})
	if allocs != 0 {
		t.Errorf("UndirectedDegree allocates %.1f times per census pass, want 0", allocs)
	}
}

// TestNecklaceReps checks the per-graph table against NecklaceRep and
// that every call returns the one shared slice.
func TestNecklaceReps(t *testing.T) {
	for _, g := range []*Graph{New(2, 1), New(2, 9), New(3, 5), New(5, 3)} {
		reps := g.NecklaceReps()
		for x := 0; x < g.Size; x++ {
			if int(reps[x]) != g.NecklaceRep(x) {
				t.Fatalf("B(%d,%d): table rep of %d = %d, NecklaceRep says %d", g.D, g.N, x, reps[x], g.NecklaceRep(x))
			}
		}
		if again := g.NecklaceReps(); &again[0] != &reps[0] {
			t.Fatalf("B(%d,%d): NecklaceReps rebuilt its table", g.D, g.N)
		}
	}
}
