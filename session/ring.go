package session

import (
	"math/bits"

	"debruijnring/internal/dense"
	"debruijnring/internal/repair"
	"debruijnring/topology"
)

// liveRing is a session's ring: the node sequence, a dense position
// index (pos[v] is v's index in seq, −1 off the ring) and a spare
// buffer the next sequence is built into.  A structural repair arrives
// as a repair.Delta and is applied in place by apply, which checks only
// the seams the delta touched; full replacements go through reset.
// Node ids and positions are int32, which halves the two sequence
// buffers and the arc copies; ints widens the sequence where an []int
// is needed.
type liveRing struct {
	seq   []int32
	pos   []int32
	spare []int32

	// apply scratch, all pooled: succ maps each edited or joining node
	// to its new successor (−1 for leaving nodes), placed marks the
	// edited nodes already on the new sequence, cuts has one bit per
	// old position that ends an unchanged arc (cutAt lists them), and
	// joins lists the joining nodes in new-ring order.
	succ   dense.Sparse
	placed dense.Sparse
	cuts   []uint64
	cutAt  []int32
	joins  []int
}

// reset installs a copy of a full replacement sequence and rebuilds the
// index.  Both sequence buffers are sized to the node count here, so
// apply never grows them.
func (r *liveRing) reset(nodes int, seq []int) {
	if len(r.pos) != nodes {
		r.pos = make([]int32, nodes)
		r.cuts = make([]uint64, (nodes+63)/64)
	}
	for i := range r.pos {
		r.pos[i] = -1
	}
	r.seq, r.spare = buffer(r.spare, nodes), buffer(r.seq, nodes)
	for i, v := range seq {
		r.seq = append(r.seq, int32(v))
		r.pos[v] = int32(i)
	}
}

// buffer returns b emptied, or a new buffer when b cannot hold n nodes.
func buffer(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, 0, n)
	}
	return b[:0]
}

// ints returns a copy of the sequence as []int.
func (r *liveRing) ints() []int {
	out := make([]int, len(r.seq))
	for i, v := range r.seq {
		out[i] = int(v)
	}
	return out
}

// apply replaces the ring by the one d describes, proving it valid
// from the seams alone.  The current ring must already be a valid ring
// around the fault set before the event; f is the fault set after it,
// fresh the faults the event added, and minLen the length the result
// must reach.  The new sequence is built in the spare buffer: unchanged
// arcs between edited and leaving nodes are block-copied, and only
// edited and joining nodes are visited one by one.  The result is
// accepted only if
//
//   - every edited hop is a link of net avoiding f (both orientations on
//     undirected nets), and no edited or joining node is faulty;
//   - every old arc and every edited node is used at most once, the walk
//     meets no leaving node, and it closes at d.Start after exactly
//     d.Length nodes, which must equal the old length minus the leaving
//     nodes plus the joining ones (so no other node left the ring);
//   - no node or link in fresh stays on the ring;
//   - the length is at least minLen.
//
// On success it returns the removed nodes in old-ring order and the
// added ones in new-ring order, or truncated with no lists when more
// than deltaLimit nodes changed — exactly what ringDiff.diff reports
// for the same pair of rings.  On failure the ring is left untouched.
//
//ringlint:noalloc
func (r *liveRing) apply(net topology.Network, d *repair.Delta, f, fresh topology.FaultSet, minLen int) (removed, added []int, truncated, ok bool) {
	if !r.build(net, d, f, fresh, minLen) {
		r.clearCuts()
		return nil, nil, false, false
	}
	if len(d.Leave)+len(r.joins) <= deltaLimit {
		removed = r.leavingInOrder(len(d.Leave))
		if len(r.joins) > 0 {
			added = make([]int, len(r.joins)) //ringlint:allow alloc fresh per event: the watch buffer and journal retain Event.Added
			copy(added, r.joins)
		}
	} else {
		truncated = true
	}
	r.clearCuts()
	for _, x := range d.Leave {
		r.pos[x] = -1
	}
	r.seq, r.spare = r.spare, r.seq
	for i, v := range r.seq {
		r.pos[v] = int32(i)
	}
	return removed, added, truncated, true
}

// build checks d against the current ring and writes the new sequence
// into r.spare, reporting whether every seam check of apply passed.
// It marks the arc ends in r.cuts, which the caller clears either way.
//
//ringlint:noalloc
func (r *liveRing) build(net topology.Network, d *repair.Delta, f, fresh topology.FaultSet, minLen int) bool {
	nodes := net.Nodes() //ringlint:allow alloc adapter Nodes is a field read on every in-tree topology
	old := r.seq
	k := len(old)
	if len(r.pos) != nodes || k == 0 || d.Length < max(minLen, 1) || d.Length > nodes ||
		d.Start < 0 || d.Start >= nodes || len(d.Succ) != len(d.Nodes) {
		return false
	}
	undirected := topology.Undirected(net)
	r.succ.Reset()
	for i, x := range d.Nodes {
		s := d.Succ[i]
		if x < 0 || x >= nodes || s < 0 || s >= nodes || r.succ.Has(x) {
			return false
		}
		//ringlint:allow alloc adapter IsEdge is arithmetic on every in-tree topology
		if !net.IsEdge(x, s) || hasNode(f, x) || hasNode(f, s) || hasEdge(f, x, s) || (undirected && hasEdge(f, s, x)) {
			return false
		}
		r.succ.Set(x, int32(s))
		r.cut(x)
	}
	for _, x := range d.Leave {
		if x < 0 || x >= nodes || r.pos[x] < 0 || r.succ.Has(x) {
			return false
		}
		r.succ.Set(x, -1)
		r.cut(x)
	}
	for _, x := range d.Join {
		if x < 0 || x >= nodes || r.pos[x] >= 0 || !r.succ.Has(x) {
			return false
		}
	}
	// The walk must stop where it starts: unless an edit or a leave
	// already cuts the old arc running into Start, cut it at Start's old
	// predecessor, which keeps its successor.
	if p := r.pos[d.Start]; p >= 0 {
		if pred := int(old[(int(p)+k-1)%k]); !r.succ.Has(pred) {
			r.succ.Set(pred, int32(d.Start))
			r.cut(pred)
		}
	}

	out := r.spare[:0]
	r.joins = r.joins[:0]
	r.placed.Reset()
	cur := d.Start
	for {
		if s, dirty := r.succ.Get(cur); dirty {
			// An edited or joining node (or a leaving one, which must not
			// be reached): one explicit hop.
			if s < 0 || !r.placed.Set(cur, 0) || len(out) == d.Length {
				return false
			}
			out = append(out, int32(cur)) //ringlint:allow alloc within the node-count capacity reset reserves
			if r.pos[cur] < 0 {
				r.joins = append(r.joins, cur) //ringlint:allow alloc pooled join list; growth amortizes to zero
			}
			cur = int(s)
		} else {
			// An unchanged node: copy its old arc up to the next cut.
			i := int(r.pos[cur])
			if i < 0 {
				return false
			}
			end, found := r.nextCut(i)
			n := end - i + 1
			if end < i {
				n += k
			}
			// With Start on the old ring its predecessor is cut, so only
			// a walk that never rejoins Start finds no cut.
			if !found || len(out)+n > d.Length {
				return false
			}
			if i+n <= k {
				out = append(out, old[i:i+n]...) //ringlint:allow alloc within the node-count capacity reset reserves
			} else {
				out = append(out, old[i:]...)     //ringlint:allow alloc within the node-count capacity reset reserves
				out = append(out, old[:i+n-k]...) //ringlint:allow alloc within the node-count capacity reset reserves
			}
			last := int(out[len(out)-1])
			s, _ := r.succ.Get(last)
			if s < 0 || !r.placed.Set(last, 0) {
				return false // the arc runs into a leaving node, or was used before
			}
			cur = int(s)
		}
		if cur == d.Start {
			break
		}
	}
	r.spare = out
	if len(out) != d.Length || len(out) != k-len(d.Leave)+len(r.joins) || len(r.joins) != len(d.Join) {
		return false
	}

	// The unchanged hops were valid before the event; only its new
	// faults can break them.
	for _, v := range fresh.Nodes {
		if r.onNewRing(v) {
			return false
		}
	}
	for _, e := range fresh.Edges {
		if r.newSucc(e.From) == e.To || (undirected && r.newSucc(e.To) == e.From) {
			return false
		}
	}
	return true
}

// nextCut finds the first cut position at or after i, wrapping around
// the ring once.
//
//ringlint:noalloc
func (r *liveRing) nextCut(i int) (int, bool) {
	k := len(r.seq)
	words := (k + 63) / 64
	w := i >> 6
	b := r.cuts[w] &^ (1<<(i&63) - 1)
	for step := 0; step <= words; step++ {
		if b != 0 {
			if p := w<<6 + bits.TrailingZeros64(b); p < k {
				return p, true
			}
		}
		if w++; w >= words {
			w = 0
		}
		b = r.cuts[w]
	}
	return 0, false
}

// onNewRing reports whether v is on the sequence build just wrote
// (valid until the index is updated).
//
//ringlint:noalloc
func (r *liveRing) onNewRing(v int) bool {
	if v < 0 || v >= len(r.pos) {
		return false
	}
	if r.pos[v] < 0 {
		return r.placed.Has(v) // a joining node
	}
	s, dirty := r.succ.Get(v)
	return !dirty || s >= 0 // not leaving
}

// newSucc is v's successor on the sequence build just wrote, −1 when v
// is not on it.
//
//ringlint:noalloc
func (r *liveRing) newSucc(v int) int {
	if !r.onNewRing(v) {
		return -1
	}
	if s, dirty := r.succ.Get(v); dirty {
		return int(s)
	}
	return int(r.seq[(int(r.pos[v])+1)%len(r.seq)])
}

// leavingInOrder lists the n leaving nodes in old-ring order, read off
// the cut bits (every leaving node's position is cut).
//
//ringlint:noalloc
func (r *liveRing) leavingInOrder(n int) []int {
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n) //ringlint:allow alloc fresh per event: the watch buffer and journal retain Event.Removed
	for w, word := range r.cuts {
		for ; word != 0; word &= word - 1 {
			v := int(r.seq[w<<6+bits.TrailingZeros64(word)])
			if s, _ := r.succ.Get(v); s < 0 {
				out = append(out, v) //ringlint:allow alloc within the capacity made above
			}
		}
	}
	return out
}

// cut marks the old position of x, if it has one, as an arc end.
//
//ringlint:noalloc
func (r *liveRing) cut(x int) {
	if p := r.pos[x]; p >= 0 {
		r.cuts[p>>6] |= 1 << (p & 63)
		r.cutAt = append(r.cutAt, p) //ringlint:allow alloc pooled cut list; growth amortizes to zero
	}
}

// clearCuts unsets every cut bit, in O(delta).
//
//ringlint:noalloc
func (r *liveRing) clearCuts() {
	for _, p := range r.cutAt {
		r.cuts[p>>6] &^= 1 << (p & 63)
	}
	r.cutAt = r.cutAt[:0]
}

// hasNode reports whether the canonical (sorted) fault set f lists v.
//
//ringlint:noalloc
func hasNode(f topology.FaultSet, v int) bool {
	lo, hi := 0, len(f.Nodes)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if f.Nodes[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(f.Nodes) && f.Nodes[lo] == v
}

// hasEdge reports whether the canonical (sorted) fault set f lists the
// link u→w.
//
//ringlint:noalloc
func hasEdge(f topology.FaultSet, u, w int) bool {
	lo, hi := 0, len(f.Edges)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e := f.Edges[m]; e.From < u || (e.From == u && e.To < w) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(f.Edges) && f.Edges[lo] == topology.Edge{From: u, To: w}
}
