// Package debruijn models the d-ary De Bruijn digraph B(d,n) and its
// undirected companion UB(d,n), together with the cycle/sequence duality of
// §3.1 and the validators used throughout the reproduction: cycle checks,
// Hamiltonicity, edge-disjointness, and exhaustive longest-cycle search on
// small instances (used to certify the worst-case optimality argument of
// §2.5).
package debruijn

import (
	"fmt"
	"sync"

	"debruijnring/internal/word"
)

// Graph is the d-ary De Bruijn digraph B(d,n).  Nodes are the integer-coded
// n-tuples of the embedded word.Space; the edge x₁…xₙ → x₂…xₙα exists for
// every α (nodes αⁿ carry loops).  Graph is immutable and safe for
// concurrent use.
type Graph struct {
	*word.Space

	// reps is the NecklaceReps table, built on first use.
	repsOnce sync.Once
	reps     []int32

	// memo holds the per-graph tables of the packages layered over
	// Graph, each built once on first use (see Memo).
	memo sync.Map // key → *memoEntry
}

// memoEntry is one Memo slot: its value, built once.
type memoEntry struct {
	once sync.Once
	v    any
}

// New returns B(d,n).
func New(d, n int) *Graph { return &Graph{Space: word.New(d, n)} }

// NecklaceReps returns the necklace representative of every node,
// indexed by node.  The table is built once per Graph, on first use, in
// O(dⁿ): an ascending scan meets each necklace first at its minimal
// member, the representative of the whole rotation orbit.  Every caller
// shares the one slice, so it must not be modified.
func (g *Graph) NecklaceReps() []int32 {
	g.repsOnce.Do(func() {
		reps := make([]int32, g.Size)
		for i := range reps {
			reps[i] = -1
		}
		for x := 0; x < g.Size; x++ {
			if reps[x] >= 0 {
				continue
			}
			for y := x; ; {
				reps[y] = int32(x)
				if y = g.RotL(y); y == x {
					break
				}
			}
		}
		g.reps = reps
	})
	return g.reps
}

// Memo returns the value build makes for key on g.  build runs once per
// Graph and key, on first use; concurrent callers wait for that one run
// and then share its value, as every caller shares NecklaceReps.  It
// lets a package layered over Graph keep a per-graph table without a
// global cache (the FFC kernel keeps its fault-free embedding here).
// key must be comparable; an unexported key type keeps the slot private
// to its package.
func (g *Graph) Memo(key any, build func() any) any {
	e, ok := g.memo.Load(key)
	if !ok {
		e, _ = g.memo.LoadOrStore(key, new(memoEntry))
	}
	m := e.(*memoEntry)
	m.once.Do(func() { m.v = build() })
	return m.v
}

// Successors appends the d successors of x to dst (including the loop when
// x = αⁿ) and returns the slice.
func (g *Graph) Successors(x int, dst []int) []int {
	dst = dst[:0]
	base := g.Suffix(x) * g.D
	for a := 0; a < g.D; a++ {
		dst = append(dst, base+a)
	}
	return dst
}

// Predecessors appends the d predecessors of x to dst.
func (g *Graph) Predecessors(x int, dst []int) []int {
	dst = dst[:0]
	pre := x / g.D
	for a := 0; a < g.D; a++ {
		dst = append(dst, a*g.Pow(g.N-1)+pre)
	}
	return dst
}

// HasLoop reports whether x has a self-loop (x = αⁿ).
func (g *Graph) HasLoop(x int) bool { return g.Successor(x, x%g.D) == x }

// NumEdges returns the number of edges of B(d,n) including loops: d·dⁿ.
func (g *Graph) NumEdges() int { return g.D * g.Size }

// UndirectedDegree returns the degree of x in UB(d,n), the graph obtained
// by deleting loops, dropping orientation and merging parallel edges
// (§1.2).  UB(d,n) has d nodes of degree 2d−2, d(d−1) of degree 2d−1 and
// dⁿ − d² of degree 2d [PR82].
// Both neighbor families are arithmetic progressions — successors fill
// [suffix·d, suffix·d + d), predecessors are pre + a·dⁿ⁻¹ — so merged
// neighbors can be counted without materializing a set: count successors
// ≠ x, then predecessors that are neither x nor inside the successor
// range.
func (g *Graph) UndirectedDegree(x int) int {
	d := g.D
	base := g.Suffix(x) * d // successors are base, …, base+d−1
	pivot := g.Pow(g.N - 1)
	pre := x / d
	deg := 0
	for a := 0; a < d; a++ {
		if base+a != x {
			deg++
		}
	}
	for a := 0; a < d; a++ {
		y := a*pivot + pre
		if y == x || (y >= base && y < base+d) {
			continue
		}
		deg++
	}
	return deg
}

// IsCycle reports whether seq is a cycle of B(d,n): nonempty, all nodes
// distinct, each consecutive pair (and the wrap-around pair) an edge.
// Length-1 sequences are cycles only at loop nodes αⁿ.
func (g *Graph) IsCycle(seq []int) bool {
	k := len(seq)
	if k == 0 {
		return false
	}
	seen := make(map[int]bool, k)
	for i, x := range seq {
		if x < 0 || x >= g.Size || seen[x] {
			return false
		}
		seen[x] = true
		if !g.IsEdge(x, seq[(i+1)%k]) {
			return false
		}
	}
	return true
}

// IsHamiltonian reports whether seq is a Hamiltonian cycle of B(d,n).
func (g *Graph) IsHamiltonian(seq []int) bool {
	return len(seq) == g.Size && g.IsCycle(seq)
}

// CycleEdges returns the edge codes ((n+1)-tuples) of the cycle seq.
func (g *Graph) CycleEdges(seq []int) []int {
	k := len(seq)
	edges := make([]int, k)
	for i, x := range seq {
		edges[i] = g.Edge(x, seq[(i+1)%k])
	}
	return edges
}

// EdgeDisjoint reports whether the given cycles are pairwise edge-disjoint
// (§3.1: their (n+1)-tuple sets are disjoint).
func (g *Graph) EdgeDisjoint(cycles ...[]int) bool {
	seen := make(map[int]bool)
	for _, c := range cycles {
		for _, e := range g.CycleEdges(c) {
			if seen[e] {
				return false
			}
			seen[e] = true
		}
	}
	return true
}

// NodesOfSequence converts a circular d-ary sequence C = [c₀, …, c_{k−1}]
// into the closed walk of B(d,n) it denotes (§3.1): the i'th node is
// c_i c_{i+1} … c_{i+n−1} with subscripts mod k.
func (g *Graph) NodesOfSequence(seq []int) []int {
	k := len(seq)
	if k == 0 {
		return nil
	}
	nodes := make([]int, k)
	for i := 0; i < k; i++ {
		x := 0
		for j := 0; j < g.N; j++ {
			x = x*g.D + seq[(i+j)%k]
		}
		nodes[i] = x
	}
	return nodes
}

// SequenceOfNodes converts a cycle (node sequence) back to its circular
// digit sequence: the i'th digit is the first digit of the i'th node.
func (g *Graph) SequenceOfNodes(nodes []int) []int {
	seq := make([]int, len(nodes))
	for i, x := range nodes {
		seq[i] = g.Digit(x, 1)
	}
	return seq
}

// IsCycleSequence reports whether the circular sequence denotes a cycle,
// i.e. all its length-n windows are distinct (§3.1).
func (g *Graph) IsCycleSequence(seq []int) bool {
	return g.IsCycle(g.NodesOfSequence(seq))
}

// LineGraphNode maps the edge (x, y) of B(d,n−1) to its node in B(d,n):
// B(d,n) is the line graph of B(d,n−1), the edge from x₁…x_{n−1} to
// x₂…xₙ being labeled x₁…xₙ (§2.5).  The receiver must be B(d,n); prev is
// B(d,n−1).
func (g *Graph) LineGraphNode(prev *Graph, x, y int) int {
	if prev.D != g.D || prev.N != g.N-1 {
		panic("debruijn: LineGraphNode wants prev = B(d,n−1)")
	}
	return prev.Edge(x, y)
}

// CycleToCircuit maps a cycle of B(d,n) to the corresponding closed circuit
// of B(d,n−1) (the line-graph correspondence of §2.5).  The returned slice
// lists the circuit's nodes; edges may repeat nodes but not edges.
func (g *Graph) CycleToCircuit(prev *Graph, cycle []int) []int {
	out := make([]int, len(cycle))
	for i, x := range cycle {
		out[i] = x / g.D // leading n−1 digits
	}
	_ = prev
	return out
}

// reachable reports which allowed nodes can be reached from x along
// directed edges through allowed nodes.
func (g *Graph) reachable(x int, allowed func(int) bool) map[int]bool {
	seen := map[int]bool{x: true}
	stack := []int{x}
	var buf []int
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		buf = g.Successors(v, buf)
		for _, w := range buf {
			if !seen[w] && allowed(w) {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// LongestCycleAvoiding exhaustively searches for a longest cycle of B(d,n)
// that avoids the given fault set.  It is exponential-time and intended for
// the small certification instances of §2.5 only; it panics when the graph
// has more than maxSearchNodes nodes.
func (g *Graph) LongestCycleAvoiding(faults map[int]bool) []int {
	const maxSearchNodes = 80
	if g.Size > maxSearchNodes {
		panic(fmt.Sprintf("debruijn: exhaustive search limited to %d nodes, got %d", maxSearchNodes, g.Size))
	}
	var best []int
	onPath := make([]bool, g.Size)
	path := make([]int, 0, g.Size)

	// The start node is allowed as a target so the reachability prune can
	// tell whether the current path can still close into a cycle.
	allowedFrom := func(start int) func(int) bool {
		return func(v int) bool {
			return !faults[v] && v >= start && (v == start || !onPath[v])
		}
	}

	var dfs func(start, v int)
	dfs = func(start, v int) {
		// Close the cycle if possible and record.
		if len(path) > len(best) && g.IsEdge(v, start) {
			best = append(best[:0], path...)
		}
		// Prune: even taking every remaining allowed node cannot beat best.
		reach := g.reachable(v, allowedFrom(start))
		if !reach[start] && !g.IsEdge(v, start) {
			return
		}
		remaining := 0
		for w := range reach {
			if !onPath[w] {
				remaining++
			}
		}
		if len(path)+remaining <= len(best) {
			return
		}
		var buf [64]int
		succ := g.Successors(v, buf[:0])
		for _, w := range succ {
			if w == v || faults[w] || onPath[w] || w < start {
				continue
			}
			onPath[w] = true
			path = append(path, w)
			dfs(start, w)
			path = path[:len(path)-1]
			onPath[w] = false
		}
	}

	// Canonical enumeration: every cycle is found from its minimal node.
	for start := 0; start < g.Size; start++ {
		if faults[start] {
			continue
		}
		onPath[start] = true
		path = append(path[:0], start)
		dfs(start, start)
		onPath[start] = false
	}
	return best
}

// FindCycleOfLength searches for a cycle of exactly length k avoiding
// faults, returning nil if none exists.  Same scale limits as
// LongestCycleAvoiding.  Used to verify pancyclicity [Lem71] on small
// instances.
func (g *Graph) FindCycleOfLength(k int, faults map[int]bool) []int {
	const maxSearchNodes = 80
	if g.Size > maxSearchNodes {
		panic("debruijn: exhaustive search limited to small graphs")
	}
	if k < 1 || k > g.Size {
		return nil
	}
	onPath := make([]bool, g.Size)
	path := make([]int, 0, k)
	var found []int

	var dfs func(start, v int) bool
	dfs = func(start, v int) bool {
		if len(path) == k {
			if g.IsEdge(v, start) {
				found = append([]int(nil), path...)
				return true
			}
			return false
		}
		var buf [64]int
		for _, w := range g.Successors(v, buf[:0]) {
			if w == v || faults[w] || onPath[w] || w < start {
				continue
			}
			onPath[w] = true
			path = append(path, w)
			if dfs(start, w) {
				return true
			}
			path = path[:len(path)-1]
			onPath[w] = false
		}
		return false
	}

	for start := 0; start < g.Size; start++ {
		if faults[start] {
			continue
		}
		if k == 1 {
			if g.HasLoop(start) {
				return []int{start}
			}
			continue
		}
		onPath[start] = true
		path = append(path[:0], start)
		if dfs(start, start) {
			return found
		}
		onPath[start] = false
	}
	return nil
}
