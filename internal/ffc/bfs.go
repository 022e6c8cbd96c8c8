package ffc

import (
	"fmt"
	"math/bits"

	"debruijnring/internal/debruijn"
)

// survivors is the graph left once the faulty necklaces are removed,
// together with the one level-order BFS that both finds its components
// and broadcasts within them.  Because whole necklaces are removed, weak
// and strong connectivity coincide — every inter-necklace edge αw → wβ
// has a directed return path through the two necklaces via βw → wα — so
// a forward BFS from any surviving node visits exactly that node's
// component.  Labeling the components is therefore the same pass as the
// Step 1.1 broadcast: no separate undirected sweep is needed.
//
// The per-node tests of the BFS are bit tests: dead marks the members
// of faulty necklaces (set and cleared necklace by necklace, O(f·n) per
// fault set) and seen the nodes some BFS has reached (cleared word by
// word, O(dⁿ/64) per pass).  Successor arithmetic divides by dⁿ⁻¹ with
// a multiply and a shift.  A warm survivors value allocates nothing.  It
// is not safe for concurrent use.
type survivors struct {
	g    *debruijn.Graph
	reps []int32 // necklace representative per node (the graph's shared table, read-only)
	div  divisor // by dⁿ⁻¹: x = q·dⁿ⁻¹ + r, so Suffix(x) = r and RotL(x) = r·d + q

	dead   []uint64 // bit x: x lies on a faulty necklace
	killed []int32  // representatives of the faulty necklaces, as killed
	seen   []uint64 // bit x: some BFS reached x
	dist   []int32  // BFS depth from the root of x's component, valid where seen
	order  []int32  // visit order: components back to back, each in level order

	comps []component // indexed by id, in discovery order
}

// component is one BFS segment of order: order[start:start+size] in
// level order from root, the component's minimum, whose eccentricity
// is ecc.
type component struct {
	start, size, root, ecc int32
}

// newSurvivors returns the survivors scratch for g, sharing its
// necklace-representative table, with its per-node arrays sized once.
// Node codes are int32 here, so g may have at most 2³¹ nodes.
func newSurvivors(g *debruijn.Graph) survivors {
	if g.Size > MaxNodes {
		panic(fmt.Sprintf("ffc: B(%d,%d) has more than 2³¹ nodes", g.D, g.N))
	}
	words := (g.Size + 63) / 64
	return survivors{
		g: g, reps: g.NecklaceReps(), div: newDivisor(g.Pow(g.N - 1)),
		dead: make([]uint64, words), killed: make([]int32, 0, 64),
		seen: make([]uint64, words), dist: make([]int32, g.Size),
		order: make([]int32, 0, g.Size), // a node is visited at most once
	}
}

// MaxNodes bounds the graphs the dense kernels index: node codes are
// int32.
const MaxNodes = 1 << 31

func (s *survivors) alive(x int) bool { return s.dead[x>>6]&(1<<(x&63)) == 0 }

// rotL is the left rotation π(x) = x₂…xₙx₁.
func (s *survivors) rotL(x int) int {
	q, r := s.div.split(x)
	return r*s.g.D + q
}

// resetFaults revives every necklace killed since the last reset.
func (s *survivors) resetFaults() {
	for _, rep32 := range s.killed {
		for rep, y := int(rep32), int(rep32); ; {
			s.dead[y>>6] &^= 1 << (y & 63)
			if y = s.rotL(y); y == rep {
				break
			}
		}
	}
	s.killed = s.killed[:0]
}

// kill marks the necklace with representative rep faulty and returns
// its node count, or 0 when it already was.
func (s *survivors) kill(rep int) int {
	if !s.alive(rep) {
		return 0
	}
	s.killed = append(s.killed, int32(rep))
	for y, period := rep, 1; ; period++ {
		s.dead[y>>6] |= 1 << (y & 63)
		if y = s.rotL(y); y == rep {
			return period
		}
	}
}

// clear forgets every component found so far.
func (s *survivors) clear() {
	clear(s.seen)
	s.order = s.order[:0]
	s.comps = s.comps[:0]
}

// label finds every component: an ascending scan starts a BFS at each
// surviving node no earlier BFS reached, which is the minimum of its
// component, so ids follow the ascending order of component minima.
// The scan reads 64 nodes per step: those neither dead nor seen.
func (s *survivors) label() {
	s.clear()
	size := s.g.Size
	for i := 0; i*64 < size; i++ {
		mask := ^uint64(0)
		if rest := size - i*64; rest < 64 {
			mask = 1<<rest - 1
		}
		for {
			free := ^(s.dead[i] | s.seen[i]) & mask
			if free == 0 {
				break
			}
			s.visit(i*64 + bits.TrailingZeros64(free))
		}
	}
}

// largest returns the id of the largest component, ties broken toward
// the smaller id (the smaller minimum); −1 when nothing survives.
func (s *survivors) largest() int32 {
	if len(s.comps) == 0 {
		return -1
	}
	best := 0
	for id := 1; id < len(s.comps); id++ {
		if s.comps[id].size > s.comps[best].size {
			best = id
		}
	}
	return int32(best)
}

// segment returns component id's BFS segment of the visit order.
func (s *survivors) segment(id int32) []int32 {
	c := s.comps[id]
	return s.order[c.start : c.start+c.size]
}

// visit runs the BFS from root as a new component and returns its id.
func (s *survivors) visit(root int) int32 {
	id := int32(len(s.comps))
	start := len(s.order)
	ecc := s.bfs(root)
	s.comps = append(s.comps, component{
		start: int32(start), size: int32(len(s.order) - start), root: int32(root), ecc: int32(ecc),
	})
	return id
}

// bfs is the Step 1.1 broadcast: a level-synchronous BFS from root along
// directed edges (successors in digit order) through surviving nodes no
// BFS has reached, marking seen, dist and order.  A self-loop needs no
// test of its own: its target is already seen.  bfs returns the
// eccentricity, the depth of the last non-empty level.
func (s *survivors) bfs(root int) int {
	d, p := s.g.D, s.div.p
	s.mark(root, 0)

	ecc := 0
	for head, depth := len(s.order)-1, 0; head < len(s.order); depth++ {
		levelEnd := len(s.order)
		d32 := int32(depth + 1)
		for ; head < levelEnd; head++ {
			v := int(s.order[head])
			base := (v - s.div.quo(v)*p) * d
			for w := base; w < base+d; w++ {
				if (s.dead[w>>6]|s.seen[w>>6])&(1<<(w&63)) == 0 {
					s.mark(w, d32)
				}
			}
		}
		if len(s.order) > levelEnd {
			ecc = depth + 1
		}
	}
	return ecc
}

// mark records x as reached at depth dist, next in the visit order.
func (s *survivors) mark(x int, dist int32) {
	s.seen[x>>6] |= 1 << (x & 63)
	s.dist[x] = dist
	s.order = append(s.order, int32(x))
}
