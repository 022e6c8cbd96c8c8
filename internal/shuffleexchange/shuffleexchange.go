// Package shuffleexchange models the d-ary shuffle-exchange network
// SE(d,n), the second graph family whose necklace structure Chapter 4 of
// Rowley–Bose studies (after [LMR88], [Lei83], [LHC89], [PI92] and the
// authors' own [RB90]).
//
// SE(d,n) has the dⁿ nodes of B(d,n); a node x₁…xₙ is joined by
//
//   - a shuffle edge to its left rotation x₂…xₙx₁ (and, undirected, to its
//     right rotation), and
//   - exchange edges to the d−1 nodes differing from it in the last digit.
//
// The shuffle edges alone decompose SE(d,n) into exactly the necklaces of
// Chapter 4 — that identification is what makes the counting formulas
// matter for shuffle-exchange layouts and routing.  Moreover every De
// Bruijn edge factors as a shuffle followed by an exchange, so any ring
// embedded in B(d,n) — in particular the fault-free FFC ring of Chapter 2 —
// transfers to SE(d,n) with dilation 2 and congestion 1 per directed
// channel (an undirected wire, carrying one channel each way, sees at most
// one ring edge per direction).  The transfer preserves fault-freedom
// because the inserted intermediate node is always a rotation
// (necklace-mate) of a ring node.
package shuffleexchange

import (
	"fmt"

	"debruijnring/internal/debruijn"
	"debruijnring/internal/ffc"
	"debruijnring/internal/word"
)

// Graph is the d-ary shuffle-exchange network SE(d,n).
type Graph struct {
	*word.Space
	db *debruijn.Graph // B(d,n), whose FFC ring EmbedRing carries over
}

// New returns SE(d,n).
func New(d, n int) *Graph { return &Graph{Space: word.New(d, n), db: debruijn.New(d, n)} }

// Shuffle returns the shuffle neighbour: the left rotation.
func (g *Graph) Shuffle(x int) int { return g.RotL(x) }

// Unshuffle returns the inverse-shuffle neighbour: the right rotation.
func (g *Graph) Unshuffle(x int) int { return g.RotLBy(x, -1) }

// Exchanges appends the d−1 exchange neighbours (last digit changed).
func (g *Graph) Exchanges(x int, dst []int) []int {
	dst = dst[:0]
	last := x % g.D
	base := x - last
	for a := 0; a < g.D; a++ {
		if a != last {
			dst = append(dst, base+a)
		}
	}
	return dst
}

// Neighbors appends all distinct SE neighbours of x (shuffle, unshuffle,
// exchanges; self-adjacencies from constant words removed).
func (g *Graph) Neighbors(x int, dst []int) []int {
	dst = dst[:0]
	seen := map[int]bool{x: true}
	for _, y := range []int{g.Shuffle(x), g.Unshuffle(x)} {
		if !seen[y] {
			seen[y] = true
			dst = append(dst, y)
		}
	}
	var buf [64]int
	for _, y := range g.Exchanges(x, buf[:0]) {
		if !seen[y] {
			seen[y] = true
			dst = append(dst, y)
		}
	}
	return dst
}

// IsEdge reports whether {x, y} is an SE edge (undirected).
func (g *Graph) IsEdge(x, y int) bool {
	if x == y {
		return false
	}
	return g.Shuffle(x) == y || g.Unshuffle(x) == y || g.Prefix(x) == g.Prefix(y)
}

// ShuffleOrbits returns the connected components of the shuffle-only
// subgraph: exactly the necklaces of B(d,n), keyed by representative.
func (g *Graph) ShuffleOrbits() map[int][]int {
	orbits := make(map[int][]int)
	for x := 0; x < g.Size; x++ {
		if g.NecklaceRep(x) == x {
			orbits[x] = g.NecklaceNodes(x, nil)
		}
	}
	return orbits
}

// EmulateDeBruijnEdge returns the SE path realizing the De Bruijn edge
// x → y = x₂…xₙα: the shuffle step to x₂…xₙx₁ followed, when α ≠ x₁, by
// one exchange step.  The path has length 1 or 2.
func (g *Graph) EmulateDeBruijnEdge(x, y int) ([]int, error) {
	mid := g.Shuffle(x)
	if mid == y {
		return []int{x, y}, nil
	}
	if mid == x {
		// x is a constant word αⁿ: its shuffle is a self-loop, but its De
		// Bruijn successors α^{n−1}β are direct exchange neighbours.
		if g.Prefix(x) == g.Prefix(y) && x != y {
			return []int{x, y}, nil
		}
		return nil, fmt.Errorf("shuffleexchange: (%s,%s) is not a De Bruijn edge", g.String(x), g.String(y))
	}
	if g.Prefix(mid) != g.Prefix(y) {
		return nil, fmt.Errorf("shuffleexchange: (%s,%s) is not a De Bruijn edge", g.String(x), g.String(y))
	}
	return []int{x, mid, y}, nil
}

// Embedding is a ring embedded in SE(d,n) with dilation ≤ 2: Walk lists
// the SE nodes visited in order (ring nodes plus at most one intermediate
// per ring edge); Ring gives the underlying De Bruijn ring.
type Embedding struct {
	Ring []int
	Walk []int
}

// Dilation returns the longest SE path realizing one ring edge (1 or 2).
func (e *Embedding) Dilation() int {
	if len(e.Walk) > len(e.Ring) {
		return 2
	}
	return 1
}

// EmbedRing embeds a fault-free ring in SE(d,n) under node faults: the FFC
// ring of Chapter 2 transferred edge-by-edge through the shuffle-exchange
// factorization.  Every intermediate node is a rotation of a ring node and
// hence lies on a nonfaulty necklace, so the walk never touches a faulty
// processor; each directed SE channel carries at most one ring edge
// (congestion 1 per channel).  The FFC kernel keeps its per-graph
// tables on g's De Bruijn graph, so repeated calls on one Graph share
// them.
func (g *Graph) EmbedRing(faults []int) (*Embedding, error) {
	res, err := ffc.Embed(g.db, faults)
	if err != nil {
		return nil, err
	}
	walk := make([]int, 0, 2*len(res.Cycle))
	k := len(res.Cycle)
	for i, x := range res.Cycle {
		y := res.Cycle[(i+1)%k]
		path, err := g.EmulateDeBruijnEdge(x, y)
		if err != nil {
			return nil, err
		}
		walk = append(walk, path[:len(path)-1]...) // y starts the next hop
	}
	return &Embedding{Ring: res.Cycle, Walk: walk}, nil
}
