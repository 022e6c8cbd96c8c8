package repair

import (
	"math/bits"

	"debruijnring/internal/dense"
	"debruijnring/topology"
)

// deltaLimit bounds the Removed/Added lists a Diff carries; larger
// changes report Truncated only.
const deltaLimit = 128

// Diff lists the nodes one ring change removed (in the old ring's
// order) and added (in the new ring's order), or only Truncated when
// more than deltaLimit nodes changed.  Both lists are fresh per change,
// so callers may retain them.
type Diff struct {
	Removed, Added []int
	Truncated      bool
}

// delta is a local repair expressed as successor edits against the
// ring before the call (Proposition 2.1: the ring is the successor
// rule, and a repair rewrites only the successors of the nodes it
// touches).  Read from Start, the new ring follows the old ring's
// successor everywhere except at Nodes[i], whose successor is now
// Succ[i]; the nodes in Leave drop off the ring, the nodes in Join come
// onto it (each is also listed in Nodes), and the result has Length
// nodes.  A delta is owned by the tier that produced it and is valid
// only until that tier's next call.
type delta struct {
	Start  int
	Length int
	Nodes  []int
	Succ   []int
	Leave  []int
	Join   []int
}

// Ring is the ring a Patcher owns: the node sequence, a dense position
// index (pos[v] is v's index in seq, −1 off the ring), a spare buffer
// the next sequence is built into, and the ring's hash.  A local repair
// arrives as a delta and is applied in place by apply, which checks
// only the seams the delta touched and updates the hash by the hops it
// changed; full replacements go through replace.  Node ids and
// positions are int32, which halves the two sequence buffers and the
// arc copies; ints widens the sequence where an []int is needed.
type Ring struct {
	seq   []int32
	pos   []int32
	spare []int32

	// hash is the sum mod 2⁶⁴ of edgeHash over the ring's hops (see
	// edgeHash); next is the hash of the sequence build is writing,
	// committed by apply only when the delta passes.
	hash, next uint64

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

	// diff holds the bitsets replace diffs the old and new rings with.
	diff ringDiff
}

// replace installs a copy of a full replacement sequence, rebuilds the
// index and reports what changed against the previous sequence.
func (r *Ring) replace(nodes int, seq []int) Diff {
	d := r.diff.diff(nodes, r.seq, seq)
	r.reset(nodes, seq)
	return d
}

// reset installs a copy of a full replacement sequence and rebuilds the
// index.  Both sequence buffers are sized to the node count here, so
// apply never grows them.
func (r *Ring) reset(nodes int, seq []int) {
	if len(r.pos) != nodes {
		r.pos = make([]int32, nodes)
		r.cuts = make([]uint64, (nodes+63)/64)
	}
	for i := range r.pos {
		r.pos[i] = -1
	}
	r.seq, r.spare = buffer(r.spare, nodes), buffer(r.seq, nodes)
	r.hash = 0
	for i, v := range seq {
		r.seq = append(r.seq, int32(v))
		r.pos[v] = int32(i)
		r.hash += edgeHash(int32(v), int32(seq[(i+1)%len(seq)]))
	}
}

// edgeHash mixes the directed hop v→s with the SplitMix64 generator's
// step and finalizer.  A ring's hash is the sum mod 2⁶⁴ of its hops'
// hashes: by Proposition 2.1 the ring is its successor rule, so the
// hash does not depend on where the sequence starts, and a delta
// updates it by taking out the hops it rewrites and adding the new
// ones.
//
//ringlint:noalloc
func edgeHash(v, s int32) uint64 {
	z := (uint64(uint32(v))<<32 | uint64(uint32(s))) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// buffer returns b emptied, or a new buffer when b cannot hold n nodes.
func buffer(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, 0, n)
	}
	return b[:0]
}

// ints returns a copy of the sequence as []int.
func (r *Ring) ints() []int {
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
// On success it returns the Diff — exactly what ringDiff.diff reports
// for the same pair of rings — and the hash has moved by the delta's
// hops alone.  On failure the ring and its hash are left untouched.
//
//ringlint:noalloc
func (r *Ring) apply(net topology.Network, d *delta, f, fresh topology.FaultSet, minLen int) (diff Diff, ok bool) {
	if !r.build(net, d, f, fresh, minLen) {
		r.clearCuts()
		return Diff{}, false
	}
	if len(d.Leave)+len(r.joins) <= deltaLimit {
		diff.Removed = r.leavingInOrder(len(d.Leave))
		if len(r.joins) > 0 {
			diff.Added = make([]int, len(r.joins)) //ringlint:allow alloc fresh per change: callers retain Diff.Added
			copy(diff.Added, r.joins)
		}
	} else {
		diff.Truncated = true
	}
	r.clearCuts()
	for _, x := range d.Leave {
		r.pos[x] = -1
	}
	r.hash = r.next
	r.seq, r.spare = r.spare, r.seq
	for i, v := range r.seq {
		r.pos[v] = int32(i)
	}
	return diff, true
}

// build checks d against the current ring and writes the new sequence
// into r.spare and its hash into r.next, reporting whether every seam
// check of apply passed.  It marks the arc ends in r.cuts, which the
// caller clears either way.  Every node whose successor changes is an
// arc end (cut), and the walk places each arc end once, so next is the
// old hash minus the cut nodes' old hops plus their new ones.
//
//ringlint:noalloc
func (r *Ring) build(net topology.Network, d *delta, f, fresh topology.FaultSet, minLen int) bool {
	nodes := net.Nodes() //ringlint:allow alloc adapter Nodes is a field read on every in-tree topology
	old := r.seq
	k := len(old)
	if len(r.pos) != nodes || k == 0 || d.Length < max(minLen, 1) || d.Length > nodes ||
		d.Start < 0 || d.Start >= nodes || len(d.Succ) != len(d.Nodes) {
		return false
	}
	undirected := topology.Undirected(net)
	r.succ.Reset()
	r.next = r.hash
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
			r.next += edgeHash(int32(cur), s)
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
			r.next += edgeHash(int32(last), s)
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
func (r *Ring) nextCut(i int) (int, bool) {
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
func (r *Ring) onNewRing(v int) bool {
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
func (r *Ring) newSucc(v int) int {
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
func (r *Ring) leavingInOrder(n int) []int {
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n) //ringlint:allow alloc fresh per change: callers retain Diff.Removed
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

// cut marks the old position of x, if it has one, as an arc end, and
// takes x's old hop out of the pending hash.
//
//ringlint:noalloc
func (r *Ring) cut(x int) {
	if p := r.pos[x]; p >= 0 {
		r.cuts[p>>6] |= 1 << (p & 63)
		r.cutAt = append(r.cutAt, p) //ringlint:allow alloc pooled cut list; growth amortizes to zero
		r.next -= edgeHash(int32(x), r.seq[(int(p)+1)%len(r.seq)])
	}
}

// clearCuts unsets every cut bit, in O(delta).
//
//ringlint:noalloc
func (r *Ring) clearCuts() {
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

// ringDiff holds the two node-membership bitsets replace diffs the old
// and new rings with: one bit per node, so dⁿ/64 words each.
type ringDiff struct {
	inOld, inCur []uint64
}

// diff lists the nodes of old missing from cur (removed, in old's ring
// order) and the nodes of cur missing from old (added, in cur's ring
// order), over node ids below nodes.  Changes of more than deltaLimit
// nodes are reported as truncated, with no lists.
func (d *ringDiff) diff(nodes int, old []int32, cur []int) Diff {
	words := (nodes + 63) / 64
	if len(d.inOld) < words {
		d.inOld, d.inCur = make([]uint64, words), make([]uint64, words)
	}
	inOld, inCur := d.inOld[:words], d.inCur[:words]
	clear(inOld)
	clear(inCur)
	for _, v := range old {
		inOld[v>>6] |= 1 << (v & 63)
	}
	for _, v := range cur {
		inCur[v>>6] |= 1 << (v & 63)
	}
	var out Diff
	for _, v := range old {
		if inCur[v>>6]&(1<<(v&63)) == 0 {
			if len(out.Removed) == deltaLimit {
				return Diff{Truncated: true}
			}
			out.Removed = append(out.Removed, int(v))
		}
	}
	for _, v := range cur {
		if inOld[v>>6]&(1<<(v&63)) == 0 {
			if len(out.Removed)+len(out.Added) == deltaLimit {
				return Diff{Truncated: true}
			}
			out.Added = append(out.Added, v)
		}
	}
	return out
}
