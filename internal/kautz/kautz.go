// Package kautz models the Kautz digraph K(d,n), the second bounded-degree
// family (after butterflies) that Chapter 5 of Rowley–Bose names when
// asking how far the disjoint-Hamiltonian-cycle results extend.
//
// K(d,n) has the (d+1)·dⁿ⁻¹ words of length n over a (d+1)-letter alphabet
// in which consecutive letters differ; edges shift left and append any
// letter different from the current last one, so in- and out-degrees are
// exactly d and there are no loops.  Like B(d,n), K(d,n) is the line graph
// of K(d,n−1) — the property behind the §2.5 worst-case argument — and it
// is Hamiltonian.  Unlike B(d,n), its words do not rotate freely (a word
// with x₁ = xₙ leaves the graph when rotated), so the necklace machinery of
// Chapter 2 does not transfer verbatim; this package provides the model
// plus exhaustive tooling to measure how many disjoint Hamiltonian cycles
// small instances actually have.
package kautz

import (
	"fmt"
	"slices"

	"debruijnring/internal/word"
)

// Graph is the Kautz digraph K(d,n): degree d, alphabet size d+1.
type Graph struct {
	D     int   // degree; alphabet has d+1 letters
	N     int   // word length
	Size  int   // (d+1)·dⁿ⁻¹
	nodes []int // node id → packed word
	index map[int]int
	pow   []int
}

// New returns K(d,n) for d ≥ 2, n ≥ 1.
func New(d, n int) *Graph {
	if d < 2 || n < 1 {
		panic(fmt.Sprintf("kautz: invalid dimensions d=%d n=%d", d, n))
	}
	base := d + 1
	pow := make([]int, n+1)
	pow[0] = 1
	for i := 1; i <= n; i++ {
		pow[i] = pow[i-1] * base
	}
	g := &Graph{D: d, N: n, index: make(map[int]int), pow: pow}
	var rec func(word, length, last int)
	rec = func(word, length, last int) {
		if length == n {
			g.index[word] = len(g.nodes)
			g.nodes = append(g.nodes, word)
			return
		}
		for a := 0; a < base; a++ {
			if length > 0 && a == last {
				continue
			}
			rec(word*base+a, length+1, a)
		}
	}
	rec(0, 0, -1)
	g.Size = len(g.nodes)
	return g
}

// Word returns the packed word of a node id.
func (g *Graph) Word(id int) int { return g.nodes[id] }

// Digit returns the i'th letter (1-indexed) of node id.
func (g *Graph) Digit(id, i int) int {
	return g.nodes[id] / g.pow[g.N-i] % (g.D + 1)
}

// String renders a node's word.
func (g *Graph) String(id int) string { return string(g.AppendString(nil, id)) }

// AppendString appends a node's word to dst, peeling letters from the
// right of its packed base-(d+1) code.
func (g *Graph) AppendString(dst []byte, id int) []byte {
	start := len(dst)
	dst = slices.Grow(dst, g.N)[:start+g.N]
	w := g.nodes[id]
	for i := len(dst) - 1; i >= start; i-- {
		dst[i] = word.DigitChar(w % (g.D + 1))
		w /= g.D + 1
	}
	return dst
}

// Parse converts a word string to a node id.
func (g *Graph) Parse(s string) (int, error) {
	if len(s) != g.N {
		return 0, fmt.Errorf("kautz: %q has length %d, want %d", s, len(s), g.N)
	}
	w := 0
	last := -1
	for _, c := range s {
		var v int
		switch {
		case c >= '0' && c <= '9':
			v = int(c - '0')
		case c >= 'a' && c <= 'z':
			v = int(c-'a') + 10
		default:
			return 0, fmt.Errorf("kautz: bad letter %q", c)
		}
		if v > g.D {
			return 0, fmt.Errorf("kautz: letter %d out of alphabet [0,%d]", v, g.D)
		}
		if v == last {
			return 0, fmt.Errorf("kautz: %q repeats consecutive letters", s)
		}
		last = v
		w = w*(g.D+1) + v
	}
	id, ok := g.index[w]
	if !ok {
		return 0, fmt.Errorf("kautz: %q is not a Kautz word", s)
	}
	return id, nil
}

// Successors appends the d successors of a node: shift left, append any
// letter different from the last.
func (g *Graph) Successors(id int, dst []int) []int {
	dst = dst[:0]
	w := g.nodes[id]
	last := w % (g.D + 1)
	suffix := w % g.pow[g.N-1]
	for a := 0; a <= g.D; a++ {
		if a == last {
			continue
		}
		dst = append(dst, g.index[suffix*(g.D+1)+a])
	}
	return dst
}

// IsEdge reports whether (x, y) is a Kautz edge.
func (g *Graph) IsEdge(x, y int) bool {
	return g.nodes[y]/(g.D+1) == g.nodes[x]%g.pow[g.N-1]
}

// IsCycle reports whether seq is a cycle of K(d,n).
func (g *Graph) IsCycle(seq []int) bool {
	if len(seq) < 2 {
		return false // K(d,n) has no loops
	}
	seen := make(map[int]bool, len(seq))
	for i, x := range seq {
		if x < 0 || x >= g.Size || seen[x] {
			return false
		}
		seen[x] = true
		if !g.IsEdge(x, seq[(i+1)%len(seq)]) {
			return false
		}
	}
	return true
}

// IsHamiltonian reports whether seq is a Hamiltonian cycle.
func (g *Graph) IsHamiltonian(seq []int) bool {
	return len(seq) == g.Size && g.IsCycle(seq)
}

// FindHamiltonian searches exhaustively for a Hamiltonian cycle avoiding
// the given forbidden node pairs.  Small graphs only.
func (g *Graph) FindHamiltonian(badEdges map[[2]int]bool) []int {
	const maxSearch = 120
	if g.Size > maxSearch {
		panic("kautz: exhaustive search limited to small graphs")
	}
	onPath := make([]bool, g.Size)
	path := make([]int, 0, g.Size)
	var found []int

	var dfs func(v int) bool
	dfs = func(v int) bool {
		if len(path) == g.Size {
			if g.IsEdge(v, path[0]) && !badEdges[[2]int{v, path[0]}] {
				found = append([]int(nil), path...)
				return true
			}
			return false
		}
		var buf [64]int
		for _, w := range g.Successors(v, buf[:0]) {
			if onPath[w] || badEdges[[2]int{v, w}] {
				continue
			}
			onPath[w] = true
			path = append(path, w)
			if dfs(w) {
				return true
			}
			path = path[:len(path)-1]
			onPath[w] = false
		}
		return false
	}

	onPath[0] = true
	path = append(path, 0)
	if dfs(0) {
		return found
	}
	return nil
}

// MaxDisjointHCs greedily extends a family of pairwise edge-disjoint
// Hamiltonian cycles by repeated search, returning the family found.  For
// small instances this answers the Chapter 5 question "how many disjoint
// HCs do Kautz graphs have?" constructively from below (the true maximum
// is at most d).
func (g *Graph) MaxDisjointHCs() [][]int {
	bad := make(map[[2]int]bool)
	var fam [][]int
	for {
		hc := g.FindHamiltonian(bad)
		if hc == nil {
			return fam
		}
		fam = append(fam, hc)
		for i, x := range hc {
			bad[[2]int{x, hc[(i+1)%len(hc)]}] = true
		}
	}
}

// AllHamiltonianCycles enumerates every Hamiltonian cycle (canonicalized
// to start at node 0), stopping at limit when limit > 0.  Small graphs.
func (g *Graph) AllHamiltonianCycles(limit int) [][]int {
	const maxSearch = 40
	if g.Size > maxSearch {
		panic("kautz: full HC enumeration limited to tiny graphs")
	}
	onPath := make([]bool, g.Size)
	path := make([]int, 0, g.Size)
	var out [][]int

	var dfs func(v int) bool
	dfs = func(v int) bool {
		if len(path) == g.Size {
			if g.IsEdge(v, path[0]) {
				out = append(out, append([]int(nil), path...))
				if limit > 0 && len(out) >= limit {
					return true
				}
			}
			return false
		}
		var buf [64]int
		for _, w := range g.Successors(v, buf[:0]) {
			if onPath[w] {
				continue
			}
			onPath[w] = true
			path = append(path, w)
			if dfs(w) {
				return true
			}
			path = path[:len(path)-1]
			onPath[w] = false
		}
		return false
	}

	onPath[0] = true
	path = append(path, 0)
	dfs(0)
	return out
}

// MaxDisjointHCsExact computes the exact maximum number of pairwise
// edge-disjoint Hamiltonian cycles by exhaustive set packing over the full
// HC enumeration.  Tiny graphs only; returns a maximum family.
func (g *Graph) MaxDisjointHCsExact() [][]int {
	all := g.AllHamiltonianCycles(0)
	edgeSets := make([]map[[2]int]bool, len(all))
	for i, hc := range all {
		es := make(map[[2]int]bool, len(hc))
		for j, x := range hc {
			es[[2]int{x, hc[(j+1)%len(hc)]}] = true
		}
		edgeSets[i] = es
	}
	disjoint := func(a, b map[[2]int]bool) bool {
		if len(a) > len(b) {
			a, b = b, a
		}
		for e := range a {
			if b[e] {
				return false
			}
		}
		return true
	}
	var best []int
	var chosen []int
	var pick func(from int)
	pick = func(from int) {
		if len(chosen) > len(best) {
			best = append(best[:0], chosen...)
		}
		if len(chosen)+len(all)-from <= len(best) || len(chosen) == g.D {
			return
		}
		for i := from; i < len(all); i++ {
			ok := true
			for _, j := range chosen {
				if !disjoint(edgeSets[i], edgeSets[j]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			chosen = append(chosen, i)
			pick(i + 1)
			chosen = chosen[:len(chosen)-1]
		}
	}
	pick(0)
	fam := make([][]int, len(best))
	for i, j := range best {
		fam[i] = all[j]
	}
	return fam
}
