// Package butterfly implements §3.4 of Rowley–Bose: the d-ary wrapped
// butterfly digraph F(d,n), its structural relationship to B(d,n) (the
// partition of [ABR90]), and the Φ map that lifts cycles of the De Bruijn
// graph to cycles of the butterfly — carrying the edge-fault-tolerant
// Hamiltonian cycle results over to butterflies when gcd(d,n) = 1
// (Propositions 3.5 and 3.6).
package butterfly

import (
	"fmt"
	"strconv"

	"debruijnring/internal/debruijn"
	"debruijnring/internal/hamilton"
	"debruijnring/internal/numtheory"
	"debruijnring/internal/word"
)

// Graph is the d-ary butterfly digraph F(d,n): nodes are pairs
// (level k ∈ Z_n, column x ∈ Z_dⁿ); node (k, x) has an edge to
// (k+1 mod n, y) for every y agreeing with x except possibly in digit k+1
// (1-indexed as in word.Space).
type Graph struct {
	D, N int
	Cols *word.Space // column tuples
	Size int         // n·dⁿ
}

// New returns F(d,n).
func New(d, n int) *Graph {
	cols := word.New(d, n)
	return &Graph{D: d, N: n, Cols: cols, Size: n * cols.Size}
}

// Node codes the butterfly node (level, column) as level·dⁿ + column.
func (g *Graph) Node(level, col int) int {
	if level < 0 || level >= g.N || col < 0 || col >= g.Cols.Size {
		panic(fmt.Sprintf("butterfly: node (%d,%d) out of range", level, col))
	}
	return level*g.Cols.Size + col
}

// Split decodes a node into (level, column).
func (g *Graph) Split(v int) (level, col int) {
	return v / g.Cols.Size, v % g.Cols.Size
}

// String renders a node as "(k,x₁…xₙ)".
func (g *Graph) String(v int) string { return string(g.AppendString(nil, v)) }

// AppendString appends a node's "(k,x₁…xₙ)" label to dst.
func (g *Graph) AppendString(dst []byte, v int) []byte {
	k, x := g.Split(v)
	dst = strconv.AppendInt(append(dst, '('), int64(k), 10)
	return append(g.Cols.AppendString(append(dst, ','), x), ')')
}

// Successors appends the d successors of v: level k+1, column x with digit
// k+1 replaced by each α ∈ Z_d.
func (g *Graph) Successors(v int, dst []int) []int {
	dst = dst[:0]
	k, x := g.Split(v)
	next := (k + 1) % g.N
	pos := k + 1 // digit to replace, 1-indexed
	base := x - g.Cols.Digit(x, pos)*g.Cols.Pow(g.N-pos)
	for a := 0; a < g.D; a++ {
		dst = append(dst, g.Node(next, base+a*g.Cols.Pow(g.N-pos)))
	}
	return dst
}

// IsEdge reports whether (u, v) is a butterfly edge.
func (g *Graph) IsEdge(u, v int) bool {
	ku, xu := g.Split(u)
	kv, xv := g.Split(v)
	if kv != (ku+1)%g.N {
		return false
	}
	pos := ku + 1
	// Columns must agree except possibly at digit pos.
	return xu-xu/g.Cols.Pow(g.N-pos)%g.D*g.Cols.Pow(g.N-pos) ==
		xv-xv/g.Cols.Pow(g.N-pos)%g.D*g.Cols.Pow(g.N-pos)
}

// NumEdges returns the edge count d·n·dⁿ.
func (g *Graph) NumEdges() int { return g.D * g.Size }

// IsCycle reports whether seq is a cycle of F(d,n).
func (g *Graph) IsCycle(seq []int) bool {
	if len(seq) == 0 {
		return false
	}
	seen := make(map[int]bool, len(seq))
	for i, v := range seq {
		if v < 0 || v >= g.Size || seen[v] {
			return false
		}
		seen[v] = true
		if !g.IsEdge(v, seq[(i+1)%len(seq)]) {
			return false
		}
	}
	return true
}

// DeBruijnClass returns the set S_x of butterfly nodes associated with De
// Bruijn node x in the [ABR90] partition: S_x = {(i, π⁻ⁱ(x)) : 0 ≤ i < n}.
func (g *Graph) DeBruijnClass(x int) []int {
	out := make([]int, g.N)
	for i := 0; i < g.N; i++ {
		out[i] = g.Node(i, g.Cols.RotLBy(x, -i))
	}
	return out
}

// ClassNode returns S_x^i = (i, π⁻ⁱ(x)), the level-i member of S_x.
func (g *Graph) ClassNode(x, i int) int {
	i %= g.N
	if i < 0 {
		i += g.N
	}
	return g.Node(i, g.Cols.RotLBy(x, -i))
}

// Lift applies the Φ map (Lemma 3.9) to a k-cycle C = (v₀, …, v_{k−1}) of
// B(d,n): the butterfly cycle (S_{v₀}⁰, S_{v₁}¹, …) of length lcm(k, n).
func (g *Graph) Lift(db *debruijn.Graph, cycle []int) []int {
	if db.D != g.D || db.N != g.N {
		panic("butterfly: Lift wants a De Bruijn graph of matching d, n")
	}
	k := len(cycle)
	t := numtheory.LCM(k, g.N)
	out := make([]int, t)
	for i := 0; i < t; i++ {
		out[i] = g.ClassNode(cycle[i%k], i%g.N)
	}
	return out
}

// ProjectEdge maps the butterfly edge S_U^j → S_V^{j+1} to the De Bruijn
// edge (U, V) underlying it.  Every butterfly edge projects to exactly one
// De Bruijn edge (Lemma 3.8); the second return is false if (u, v) is not
// a butterfly edge.
func (g *Graph) ProjectEdge(db *debruijn.Graph, u, v int) (dbEdgeFrom, dbEdgeTo int, ok bool) {
	if !g.IsEdge(u, v) {
		return 0, 0, false
	}
	ku, xu := g.Split(u)
	kv, xv := g.Split(v)
	from := g.Cols.RotLBy(xu, ku)
	to := g.Cols.RotLBy(xv, kv)
	if !db.IsEdge(from, to) {
		return 0, 0, false
	}
	return from, to, true
}

// FaultFreeHC returns a Hamiltonian cycle of F(d,n) avoiding the given
// faulty butterfly edges (each an ordered node pair), implementing
// Proposition 3.5: project the faults to De Bruijn edges, find a De Bruijn
// HC avoiding them (tolerance MAX{ψ(d)−1, φ(d)}), and lift it with Φ.
// Requires gcd(d,n) = 1, which makes lcm(dⁿ, n) = n·dⁿ.
func (g *Graph) FaultFreeHC(faultEdges [][2]int) ([]int, error) {
	if numtheory.GCD(g.D, g.N) != 1 {
		return nil, fmt.Errorf("butterfly: Proposition 3.5 needs gcd(d,n) = 1, got d=%d n=%d", g.D, g.N)
	}
	db := debruijn.New(g.D, g.N)
	var windows [][]int
	for _, e := range faultEdges {
		from, to, ok := g.ProjectEdge(db, e[0], e[1])
		if !ok {
			return nil, fmt.Errorf("butterfly: fault %v is not an edge of F(%d,%d)", e, g.D, g.N)
		}
		w := make([]int, g.N+1)
		for i := 1; i <= g.N; i++ {
			w[i-1] = db.Digit(from, i)
		}
		w[g.N] = db.Digit(to, g.N)
		windows = append(windows, w)
	}
	seq, err := hamilton.FaultFreeHC(g.D, g.N, windows)
	if err != nil {
		return nil, err
	}
	return g.Lift(db, db.NodesOfSequence(seq)), nil
}

// DisjointHCs returns ψ(d) pairwise edge-disjoint Hamiltonian cycles of
// F(d,n) (Proposition 3.6), again requiring gcd(d,n) = 1.
func (g *Graph) DisjointHCs() ([][]int, error) {
	if numtheory.GCD(g.D, g.N) != 1 {
		return nil, fmt.Errorf("butterfly: Proposition 3.6 needs gcd(d,n) = 1, got d=%d n=%d", g.D, g.N)
	}
	db := debruijn.New(g.D, g.N)
	fam, err := hamilton.DisjointHCs(g.D, g.N)
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(fam.Cycles))
	for i, seq := range fam.Cycles {
		out[i] = g.Lift(db, db.NodesOfSequence(seq))
	}
	return out, nil
}

// EdgeDisjoint reports whether the given butterfly cycles share no edge.
func (g *Graph) EdgeDisjoint(cycles ...[]int) bool {
	seen := make(map[[2]int]bool)
	for _, c := range cycles {
		for i, v := range c {
			e := [2]int{v, c[(i+1)%len(c)]}
			if seen[e] {
				return false
			}
			seen[e] = true
		}
	}
	return true
}
