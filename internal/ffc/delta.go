package ffc

import (
	"slices"
	"sync/atomic"

	"debruijnring/internal/debruijn"
)

// base is a graph's fault-free embedding: the full path's Result for no
// faults, kept once per graph (debruijn.Graph.Memo) and shared by every
// Embedder on it.  Its shape is fixed by the graph.  The root is 0ⁿ.  A
// walk of length L ≤ n from 0ⁿ shifts in L digits, so a node's
// broadcast depth is its digit count, and every node x ≥ 1 has exactly
// one predecessor one level up, its leading-digit prefix x/d.  Each
// necklace r ≠ 0ⁿ therefore hangs from rep(r/d) with Y = r and
// p = w = r/d, and since r/d grows with r, the tree in ascending child
// order is grouped by ascending label, star by star.
type base struct {
	cycle   []int      // the fault-free ring, from 0ⁿ
	pos     []int32    // node → its index in cycle
	tree    []TreeLink // every necklace but [0ⁿ], ascending
	ov      []Override // grouped by star, ascending label
	starW   []int32    // the labels that have a star, ascending
	starOff []int32    // star starW[i] closes with ov[starOff[i]:starOff[i+1]]
	pow     []int      // pow[k] = dᵏ for k ≤ n: depth L holds [d^(L−1), d^L)
}

// baseKey is the debruijn.Graph.Memo key of the base.
type baseKey struct{}

// baseBuilds counts base constructions; tests pin it to one per graph.
var baseBuilds atomic.Int64

// baseOf returns g's base, built on first use.
func baseOf(g *debruijn.Graph) *base {
	return g.Memo(baseKey{}, func() any { return newBase(g) }).(*base)
}

func newBase(g *debruijn.Graph) *base {
	baseBuilds.Add(1)
	em := NewEmbedder(g)
	em.Workers = 1
	em.forceFull = true
	res, err := em.Embed(nil)
	if err != nil {
		panic("ffc: fault-free embed failed: " + err.Error())
	}
	b := &base{cycle: res.Cycle, pos: make([]int32, g.Size), tree: res.Tree, ov: res.Overrides, pow: make([]int, g.N+1),
		starW: make([]int32, 0, len(res.Tree)), starOff: make([]int32, 0, len(res.Tree)+1)}
	for i, x := range b.cycle {
		b.pos[x] = int32(i)
	}
	// A star has at least one link, and its k children close k+1 members.
	off := int32(0)
	for i := 0; i < len(b.tree); {
		k := 1
		for i+k < len(b.tree) && b.tree[i+k].W == b.tree[i].W {
			k++
		}
		b.starW = append(b.starW, b.tree[i].W)
		b.starOff = append(b.starOff, off)
		off += int32(k + 1)
		i += k
	}
	b.starOff = append(b.starOff, off)
	for k := range b.pow {
		b.pow[k] = g.Pow(k)
	}
	return b
}

// treeIndex returns the index of necklace rep's link in the base tree.
func (b *base) treeIndex(rep int32) int {
	lo, hi := 0, len(b.tree)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.tree[m].Child < rep {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// starIndex returns the index of label w in starW, or where it would
// go, and whether w has a base star.
func (b *base) starIndex(w int32) (int, bool) {
	return slices.BinarySearch(b.starW, w)
}

// stranded reports whether every successor of 0ⁿ but 0ⁿ itself, the
// nodes 1, …, d−1, is faulty.
func (e *Embedder) stranded() bool {
	for x := 1; x < e.g.D; x++ {
		if e.s.alive(x) {
			return false
		}
	}
	return true
}

// relevel finds the alive nodes the faults push deeper than in the
// base, their new depths and B*'s size and eccentricity.  It reports
// false when 0ⁿ's component might not be the largest (the nodes it lost
// outnumber those it kept), which only the full path's component
// labeling can settle.  When it reports true, the re-levelled nodes are
// left in s.order[:e.relevelled], marked in e.moved, for unmark.
//
// A path of length at most n from 0ⁿ to x runs through x's prefixes
// x/d, x/d², …, so x keeps its depth exactly when none of them is dead:
// the re-levelled nodes are the alive descendants of the dead nodes in
// the prefix tree, and all are deeper than n.  One with an alive,
// unmoved predecessor βw (β ≥ 1, which is n deep) is n+1 deep; these
// seed a BFS through the re-levelled nodes that gives the rest their
// depths (Even & Shiloach's decremental BFS, in one batch).  What the
// BFS does not reach has left 0ⁿ's component.
func (e *Embedder) relevel(deadNodes int) bool {
	s := &e.s
	d, pivot, size := e.g.D, s.div.p, e.g.Size
	moved := s.order[:0]
	for _, rep32 := range s.killed {
		for z, rep := int(rep32), int(rep32); ; {
			if z < pivot {
				moved = e.adopt(z, moved)
			}
			if z = s.rotL(z); z == rep {
				break
			}
		}
	}
	for i := 0; i < len(moved); i++ {
		if x := int(moved[i]); x < pivot {
			moved = e.adopt(x, moved)
		}
	}
	e.relevelled = len(moved)

	queue := e.ovTo[:0] // the walk's overrides are set only after the BFS
	for _, x32 := range moved {
		x := int(x32)
		s.dist[x] = -1
		for q := e.byD.quo(x) + pivot; q < size; q += pivot {
			if (s.dead[q>>6]|e.moved[q>>6])&(1<<(q&63)) == 0 {
				s.dist[x] = int32(e.g.N + 1)
				queue = append(queue, x32)
				break
			}
		}
	}
	for head := 0; head < len(queue); head++ {
		v := int(queue[head])
		dv := s.dist[v] + 1
		first := (v - s.div.quo(v)*pivot) * d
		for w := first; w < first+d; w++ {
			if e.moved[w>>6]&(1<<(w&63)) != 0 && s.dist[w] < 0 {
				s.dist[w] = dv
				queue = append(queue, int32(w))
			}
		}
	}

	// B* holds every unmoved alive node.  Another component lies within
	// what 0ⁿ's lost, and a tie goes to the smaller minimum, 0ⁿ.
	unreached := len(moved) - len(queue)
	e.bstar = size - deadNodes - unreached
	if unreached > e.bstar {
		e.unmark()
		return false
	}
	if len(queue) > 0 {
		e.ecc = int(s.dist[queue[len(queue)-1]]) // BFS order: the last is the deepest
	} else {
		e.ecc = e.topLevel()
	}
	return true
}

// adopt marks the alive children x·d+α of x in the prefix tree
// re-levelled and appends them to moved.  x < dⁿ⁻¹, and x ≠ 0, so no
// child is x itself.
func (e *Embedder) adopt(x int, moved []int32) []int32 {
	for c := x * e.g.D; c < (x+1)*e.g.D; c++ {
		if e.s.alive(c) {
			e.moved[c>>6] |= 1 << (c & 63)
			moved = append(moved, int32(c))
		}
	}
	return moved
}

// unmark clears the marks relevel left.
func (e *Embedder) unmark() {
	for _, x := range e.s.order[:e.relevelled] {
		e.moved[x>>6] &^= 1 << (x & 63)
	}
}

func (e *Embedder) isMoved(x int) bool { return e.moved[x>>6]&(1<<(x&63)) != 0 }

// topLevel returns the deepest base level that still holds an alive,
// unmoved node: B*'s eccentricity when no re-levelled node is in B*.
// Level L holds the nodes [d^(L−1), d^L), and the first few nodes of
// level n almost always settle it.
func (e *Embedder) topLevel() int {
	for l := e.g.N; l > 0; l-- {
		for x := e.b.pow[l-1]; x < e.b.pow[l]; x++ {
			if e.s.alive(x) && !e.isMoved(x) {
				return l
			}
		}
	}
	return 0
}

// embedDelta derives the Result from the base after relevel: Step 1.2
// only for the necklaces whose representative moved, Step 2 only for
// the stars whose edge set changed, Step 3 as base-cycle runs between
// the nodes whose successor may have changed.
func (e *Embedder) embedDelta(res *Result) (*Result, error) {
	s, b := &e.s, e.b
	d, pivot, size := e.g.D, s.div.p, e.g.Size
	moved := s.order[:e.relevelled]
	res.Root, res.BStarSize, res.Eccentricity = 0, e.bstar, e.ecc

	// Step 1.2 for the touched necklaces: those whose representative
	// moved.  Any other alive necklace r keeps Y = r, the least and
	// shallowest of its nodes, and its least predecessor p = r/d one
	// level up, so its tree edge is the base's.
	e.touched = e.touched[:0]
	for _, x := range moved {
		if s.reps[x] == x {
			e.touched = append(e.touched, x)
		}
	}
	slices.Sort(e.touched)
	e.stars = e.stars[:0]
	for _, r32 := range e.touched {
		r := int(r32)
		if s.dist[r] < 0 {
			continue // the whole necklace left 0ⁿ's component
		}
		// Y minimizes (depth, node).  Unmoved nodes are at most n deep
		// and moved ones deeper, and of two unmoved nodes the smaller is
		// no deeper, so Y is the least unmoved node if there is one.
		yu, ym := -1, -1
		for x := r; ; {
			if !e.isMoved(x) {
				if yu < 0 || x < yu {
					yu = x
				}
			} else if ym < 0 || s.dist[x] < s.dist[ym] || s.dist[x] == s.dist[ym] && x < ym {
				ym = x
			}
			if x = s.rotL(x); x == r {
				break
			}
		}
		y, p := yu, -1
		if yu >= 0 {
			p = e.byD.quo(yu) // its prefix is alive and unmoved, one level up
		} else {
			// The least predecessor βw one level up.  Y's prefix w is
			// dead or moved, so an alive, unmoved βw has β ≥ 1 and is n
			// deep, which makes Y a BFS seed, n+1 deep.
			y = ym
			dp := s.dist[ym] - 1
			for q := e.byD.quo(ym); q < size; q += pivot {
				if e.isMoved(q) {
					if s.dist[q] == dp {
						p = q
						break
					}
				} else if s.alive(q) {
					p = q
					break
				}
			}
		}
		if err := e.addEdge(r, y, p); err != nil {
			return nil, err
		}
	}

	// The tree: the base's, less the dead and the touched necklaces, with
	// the touched ones in B* (e.stars) re-hung.  All three lists ascend.
	dead := res.FaultyNecklaces
	res.Tree = make([]TreeLink, 0, len(b.tree)-len(dead)-len(e.touched)+len(e.stars))
	from, i, j, k := 0, 0, 0, 0
	for i < len(dead) || j < len(e.touched) {
		var r int32
		if j == len(e.touched) || i < len(dead) && int32(dead[i]) < e.touched[j] {
			r = int32(dead[i])
			i++
		} else {
			r = e.touched[j]
			j++
		}
		at := b.treeIndex(r)
		res.Tree = append(res.Tree, b.tree[from:at]...)
		from = at + 1
		if k < len(e.stars) && e.stars[k].child == r {
			st := e.stars[k]
			res.Tree = append(res.Tree, TreeLink{Child: st.child, Parent: st.parent, W: st.w})
			k++
		}
	}
	res.Tree = append(res.Tree, b.tree[from:]...)

	// Step 2 for the changed stars: the base label r/d of every dead or
	// touched necklace r and the new label of every re-hung one.  Any
	// other star keeps the base's edges and so its closure.
	e.labels = e.labels[:0]
	for _, r := range dead {
		e.labels = append(e.labels, int32(e.byD.quo(r)))
	}
	for _, r := range e.touched {
		e.labels = append(e.labels, int32(e.byD.quo(int(r))))
	}
	for _, st := range e.stars {
		e.labels = append(e.labels, st.w)
	}
	slices.Sort(e.labels)
	e.labels = slices.Compact(e.labels)
	e.sortStars()
	// Every out-node of a changed star, old or new, is a node whose
	// successor may have changed: a walk breakpoint.
	e.newOv, e.newEnd, e.marks = e.newOv[:0], e.newEnd[:0], e.marks[:0]
	nOv := len(b.ov)
	rehung := e.stars
	for _, w := range e.labels {
		// Its edges: the base children r = wα still alive and unmoved,
		// merged in child order with the re-hung necklaces labeled w.
		e.starBuf = e.starBuf[:0]
		for c := int(w) * d; c < (int(w)+1)*d; c++ {
			if c == 0 || int(s.reps[c]) != c || !s.alive(c) || e.isMoved(c) {
				continue
			}
			for len(rehung) > 0 && rehung[0].w == w && int(rehung[0].child) < c {
				e.starBuf = append(e.starBuf, rehung[0])
				rehung = rehung[1:]
			}
			e.starBuf = append(e.starBuf, starEdge{w: w, child: int32(c), parent: s.reps[w], y: int32(c), p: w})
		}
		for len(rehung) > 0 && rehung[0].w == w {
			e.starBuf = append(e.starBuf, rehung[0])
			rehung = rehung[1:]
		}
		if len(e.starBuf) > 0 {
			first := len(e.newOv)
			e.newOv = e.closeStar(e.starBuf, e.newOv)
			for _, o := range e.newOv[first:] {
				e.ovSet[o.Out>>6] |= 1 << (o.Out & 63)
				e.ovTo[o.Out] = o.In
				e.marks = append(e.marks, b.pos[o.Out])
			}
		}
		e.newEnd = append(e.newEnd, int32(len(e.newOv)))
		if at, ok := b.starIndex(w); ok {
			old := b.ov[b.starOff[at]:b.starOff[at+1]]
			for _, o := range old {
				e.marks = append(e.marks, b.pos[o.Out])
			}
			nOv -= len(old)
		}
	}
	nOv += len(e.newOv)
	slices.Sort(e.marks)

	// The overrides: the base's star runs, each changed star's replaced.
	res.Overrides = make([]Override, 0, nOv)
	from = 0
	for li, w := range e.labels {
		at, ok := b.starIndex(w)
		res.Overrides = append(res.Overrides, b.ov[from:b.starOff[at]]...)
		if from = int(b.starOff[at]); ok {
			from = int(b.starOff[at+1])
		}
		lo := int32(0)
		if li > 0 {
			lo = e.newEnd[li-1]
		}
		res.Overrides = append(res.Overrides, e.newOv[lo:e.newEnd[li]]...)
	}
	res.Overrides = append(res.Overrides, b.ov[from:]...)

	// Step 3: the walk follows the base cycle from 0ⁿ, copying it run by
	// run up to the next breakpoint, whose successor the new overrides
	// decide.
	cycle, err := e.walkRuns(res.BStarSize)
	for _, o := range e.newOv {
		e.ovSet[o.Out>>6] &^= 1 << (o.Out & 63)
	}
	if err != nil {
		return nil, err
	}
	res.Cycle = cycle
	return res, nil
}

// walkRuns is walk over the base cycle: between breakpoints (e.marks)
// every successor is the base's, so each stretch is one copy.
func (e *Embedder) walkRuns(want int) ([]int, error) {
	b := e.b
	cycle := make([]int, 0, want)
	for i := 0; ; {
		j, next := len(b.cycle)-1, 0 // no breakpoint left: the base closes at 0ⁿ
		if k, _ := slices.BinarySearch(e.marks, int32(i)); k < len(e.marks) {
			j = int(e.marks[k])
			x := b.cycle[j]
			if e.ovSet[x>>6]&(1<<(x&63)) != 0 {
				next = int(e.ovTo[x])
			} else {
				next = e.s.rotL(x)
			}
		}
		if len(cycle)+j-i+1 > want {
			return nil, errWalkExceeded(want)
		}
		cycle = append(cycle, b.cycle[i:j+1]...)
		if next == 0 {
			break
		}
		i = int(b.pos[next])
	}
	if len(cycle) != want {
		return nil, errWalkClosed(len(cycle), want)
	}
	return cycle, nil
}
