package repair

import (
	"slices"

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

// maxPieces is the piece count past which apply flattens the ring back
// into one piece.  Every apply pays O(pieces) to write the new piece
// list and its start index, and a flatten pays O(ring) once, so the
// bound trades the two; PERF.md "Piece-table ring" measures the choice.
const maxPieces = 128

// piece is one run of the ring: the nodes in buffer slots start,
// start+1, …, the first of them at ring rank rank.  The run is as long
// as the rank gap to the next piece (to the ring's length for the last).
type piece struct{ start, rank int32 }

// Ring is the ring a Patcher owns, held as a piece table.  buf is an
// append-only node buffer: the ring as it stood at the last flatten,
// followed by the nodes that joined since.  loc[v] is v's slot in buf
// while v is on the ring; off it, loc[v] is −2−s when v left slot s
// since the last flatten (a rejoin takes s back, so a node that returns
// between its old neighbours merges back into their run), else −1.
// pieces lists the ring's runs of buffer slots in ring order, each with
// the ring rank of its first node, so the ring read from rank 0 is the
// runs one after another; byStart indexes the same pieces by start slot
// (start<<32 | piece), so a node's piece, and with it its rank and its
// ring neighbours, is a binary search away.
//
// A local repair arrives as a delta, and apply checks only the seams
// it touched, moves the hash by the hops it changed and writes the new
// piece list by slicing the old one at the edited nodes: O(pieces +
// delta · log pieces), with no pass over the ring.  The ring is
// flattened back to a single piece (rebase) once the piece count passes
// maxPieces, or once the slots of departed nodes use up the buffer's
// slack.  Readers materialize the ring in one pass over the pieces;
// full replacements go through replace.
type Ring struct {
	buf   []int32
	spare []int32 // the buffer rebase flattens into; both share one capacity
	loc   []int32
	k     int // ring length

	pieces  []piece
	byStart []uint64

	// hash is the sum mod 2⁶⁴ of edgeHash over the ring's hops (see
	// edgeHash); next is the hash of the ring build is writing,
	// committed by apply only when the delta passes.
	hash, next uint64

	// rebases counts flattens, for tests.
	rebases int

	// apply scratch, all pooled: succ maps each edited or joining node
	// to its new successor (−1 for leaving nodes), placed marks the
	// edited nodes and arc ends already on the new ring, cuts holds
	// rank<<32 | node for every old node that ends an unchanged arc
	// (sorted by rank before the walk), and joins lists the joining
	// nodes in new-ring order, with their buffer slots in joinAt.
	// build writes the new piece list into nextPieces with, per piece,
	// the old piece it was cut from (−1 for a run of joining nodes) in
	// origin; sortPieces indexes it by start in nextByStart, marking in
	// whole the old pieces kept whole.
	succ        dense.Sparse
	placed      dense.Sparse
	cuts        []uint64
	joins       []int
	joinAt      []int32
	nextPieces  []piece
	origin      []int32
	nextByStart []uint64
	whole       []int32

	// diff holds the bitsets replace diffs the old and new rings with.
	diff ringDiff
}

// bufCap is the capacity of a ring buffer over nodes nodes: room for
// every node plus a slack of departed nodes' slots, which apply keeps
// covered so a delta's joins never grow the buffer.
func bufCap(nodes int) int { return nodes + nodes/16 }

// replace installs a copy of a full replacement sequence, flat, and
// reports what changed against the previous ring.
func (r *Ring) replace(nodes int, seq []int) Diff {
	old := r.appendTo(r.spare[:0])
	d := r.diff.diff(nodes, old, seq)
	r.spare = old[:0]
	r.reset(nodes, seq)
	return d
}

// reset installs a copy of a full replacement sequence as one piece and
// rebuilds the slot index.  Both buffers are sized here, so apply never
// grows them.
func (r *Ring) reset(nodes int, seq []int) {
	if len(r.loc) != nodes {
		r.loc = make([]int32, nodes)
		r.buf, r.spare = make([]int32, 0, bufCap(nodes)), make([]int32, 0, bufCap(nodes))
	}
	for i := range r.loc {
		r.loc[i] = -1
	}
	r.buf = r.buf[:0]
	r.hash = 0
	for i, v := range seq {
		r.buf = append(r.buf, int32(v))
		r.loc[v] = int32(i)
		r.hash += edgeHash(int32(v), int32(seq[(i+1)%len(seq)]))
	}
	r.k = len(seq)
	r.pieces, r.byStart = r.pieces[:0], r.byStart[:0]
	if r.k > 0 {
		r.pieces, r.byStart = append(r.pieces, piece{}), append(r.byStart, 0)
	}
}

// rebase flattens the ring into one piece at the head of the spare
// buffer, which becomes the buffer, and reindexes every node's slot.
//
//ringlint:noalloc
func (r *Ring) rebase() {
	flat := r.appendTo(r.spare[:0])
	for i, v := range flat {
		r.loc[v] = int32(i)
	}
	r.buf, r.spare = flat, r.buf[:0]
	r.pieces = append(r.pieces[:0], piece{}) //ringlint:allow alloc pooled piece list, never empty here
	r.byStart = append(r.byStart[:0], 0)     //ringlint:allow alloc pooled piece index, never empty here
	r.rebases++
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

// run returns piece i's nodes.
//
//ringlint:noalloc
func (r *Ring) run(i int) []int32 {
	end := r.k
	if i+1 < len(r.pieces) {
		end = int(r.pieces[i+1].rank)
	}
	s := int(r.pieces[i].start)
	return r.buf[s : s+end-int(r.pieces[i].rank)]
}

// appendTo appends the ring, from rank 0, to dst: one copy per piece.
//
//ringlint:noalloc
func (r *Ring) appendTo(dst []int32) []int32 {
	for i := range r.pieces {
		dst = append(dst, r.run(i)...) //ringlint:allow alloc the caller sizes dst; rebase's spare holds the whole ring
	}
	return dst
}

// ints returns a copy of the ring as []int.
func (r *Ring) ints() []int {
	out := make([]int, 0, r.k)
	for i := range r.pieces {
		for _, v := range r.run(i) {
			out = append(out, int(v))
		}
	}
	return out
}

// equal reports whether the ring, read from rank 0, is seq.
func (r *Ring) equal(seq []int) bool {
	if len(seq) != r.k {
		return false
	}
	for i, p := range r.pieces {
		for j, v := range r.run(i) {
			if seq[int(p.rank)+j] != int(v) {
				return false
			}
		}
	}
	return true
}

// pieceOf returns the piece holding buffer slot b, which must be on the
// ring.
//
//ringlint:noalloc
func (r *Ring) pieceOf(b int) int {
	lo, hi := 0, len(r.byStart)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(r.byStart[m]>>32) <= b {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return int(uint32(r.byStart[lo-1]))
}

// locate returns the piece holding the on-ring node v and v's rank.
//
//ringlint:noalloc
func (r *Ring) locate(v int) (p, rank int) {
	b := int(r.loc[v])
	p = r.pieceOf(b)
	return p, int(r.pieces[p].rank) + b - int(r.pieces[p].start)
}

// after returns the node that follows buffer slot b, in piece p, on the
// ring.
//
//ringlint:noalloc
func (r *Ring) after(p, b int) int {
	if b+1 < int(r.pieces[p].start)+len(r.run(p)) {
		return int(r.buf[b+1])
	}
	if p++; p == len(r.pieces) {
		p = 0
	}
	return int(r.buf[r.pieces[p].start])
}

// before returns the node that precedes buffer slot b, in piece p, on
// the ring.
//
//ringlint:noalloc
func (r *Ring) before(p, b int) int {
	if b > int(r.pieces[p].start) {
		return int(r.buf[b-1])
	}
	if p == 0 {
		p = len(r.pieces)
	}
	prev := r.run(p - 1)
	return int(prev[len(prev)-1])
}

// apply replaces the ring by the one d describes, proving it valid
// from the seams alone.  The current ring must already be a valid ring
// around the fault set before the event; f is the fault set after it,
// fresh the faults the event added, and minLen the length the result
// must reach.  The new ring starts at d.Start.  Its piece list is the
// old one sliced at the arc ends: unchanged arcs between edited and
// leaving nodes keep their buffer slots, edited nodes keep theirs, and
// joining nodes take back the slot they left or are appended to the
// buffer, so only edited and joining nodes are visited one by one.  The
// result is accepted only if
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
// hops alone.  On failure the ring, its pieces and its hash are left
// untouched.
//
//ringlint:noalloc
func (r *Ring) apply(net topology.Network, d *delta, f, fresh topology.FaultSet, minLen int) (diff Diff, ok bool) {
	base := len(r.buf)
	if !r.build(net, d, f, fresh, minLen) {
		r.buf = r.buf[:base] // drop the slots build gave joining nodes
		r.cuts = r.cuts[:0]
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
	r.cuts = r.cuts[:0]
	for _, x := range d.Leave {
		r.loc[x] = -2 - r.loc[x] // keep the slot for a rejoin
	}
	for i, x := range r.joins {
		r.loc[x] = r.joinAt[i]
	}
	r.hash = r.next
	r.sortPieces(d.Length)
	r.k = d.Length
	r.pieces, r.nextPieces = r.nextPieces, r.pieces
	r.byStart, r.nextByStart = r.nextByStart, r.byStart
	// Flatten past maxPieces, or when the buffer could not take every
	// off-ring node joining in the next delta.
	if len(r.pieces) > maxPieces || len(r.buf)+len(r.loc)-r.k > cap(r.buf) {
		r.rebase()
	}
	return diff, true
}

// build checks d against the current ring and writes the new piece
// list into r.nextPieces (joining nodes get the slots they left, or
// slots past the buffer's end) and its hash into r.next, reporting
// whether every seam check of apply passed.  Every node whose successor
// changes is an arc end (cut), and the walk places each arc end once,
// so next is the old hash minus the cut nodes' old hops plus their new
// ones.
//
//ringlint:noalloc
func (r *Ring) build(net topology.Network, d *delta, f, fresh topology.FaultSet, minLen int) bool {
	nodes := net.Nodes() //ringlint:allow alloc adapter Nodes is a field read on every in-tree topology
	k := r.k
	if len(r.loc) != nodes || k == 0 || d.Length < max(minLen, 1) || d.Length > nodes ||
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
		if x < 0 || x >= nodes || r.loc[x] < 0 || r.succ.Has(x) {
			return false
		}
		r.succ.Set(x, -1)
		r.cut(x)
	}
	for _, x := range d.Join {
		if x < 0 || x >= nodes || r.loc[x] >= 0 || !r.succ.Has(x) {
			return false
		}
	}
	// The walk must stop where it starts: unless an edit or a leave
	// already cuts the old arc running into Start, cut it at Start's old
	// predecessor, which keeps its successor.
	if b := int(r.loc[d.Start]); b >= 0 {
		if pred := r.before(r.pieceOf(b), b); !r.succ.Has(pred) {
			r.succ.Set(pred, int32(d.Start))
			r.cut(pred)
		}
	}
	slices.Sort(r.cuts) //ringlint:allow alloc slices.Sort sorts in place

	r.nextPieces, r.origin = r.nextPieces[:0], r.origin[:0]
	r.joins, r.joinAt = r.joins[:0], r.joinAt[:0]
	r.placed.Reset()
	n, cur := 0, d.Start // nodes placed, and the next one
	for {
		if s, dirty := r.succ.Get(cur); dirty {
			// An edited or joining node (or a leaving one, which must not
			// be reached): one explicit hop.
			if s < 0 || !r.placed.Set(cur, 0) || n == d.Length {
				return false
			}
			slot, from := int(r.loc[cur]), int32(-1)
			if slot < 0 {
				slot = r.joinSlot(cur)
				r.joins = append(r.joins, cur)           //ringlint:allow alloc pooled join list; growth amortizes to zero
				r.joinAt = append(r.joinAt, int32(slot)) //ringlint:allow alloc pooled join list; growth amortizes to zero
			} else {
				from = int32(r.pieceOf(slot))
			}
			r.emit(slot, n, from)
			n++
			r.next += edgeHash(int32(cur), s)
			cur = int(s)
		} else {
			// An unchanged node: take its old arc up to the next cut.
			if r.loc[cur] < 0 {
				return false
			}
			p, i := r.locate(cur)
			end, last, found := r.nextCut(i)
			m := end - i + 1
			if end < i {
				m += k
			}
			// With Start on the old ring its predecessor is cut, so only
			// a walk that never rejoins Start finds no cut.
			if !found || n+m > d.Length {
				return false
			}
			r.copyArc(p, i-int(r.pieces[p].rank), m, n)
			n += m
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
	if n != d.Length || n != k-len(d.Leave)+len(r.joins) || len(r.joins) != len(d.Join) {
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

// joinSlot returns the buffer slot the joining node v takes: the slot
// it held when it last left the ring, if that slot is still v's (the
// buffer has not been flattened since), so a node that rejoins between
// its old neighbours merges back into their piece; else a fresh slot
// past the buffer's end.  Joining nodes are distinct and off the ring,
// and apply keeps room past the end for every off-ring node.
//
//ringlint:noalloc
func (r *Ring) joinSlot(v int) int {
	if g := -2 - int(r.loc[v]); g >= 0 && g < len(r.buf) && r.buf[g] == int32(v) {
		return g
	}
	r.buf = append(r.buf, int32(v)) //ringlint:allow alloc within the capacity apply keeps free
	return len(r.buf) - 1
}

// copyArc appends m nodes of the old ring, from offset off in piece p
// on (wrapping at the ring's end), to the new piece list, the first at
// new rank at.
//
//ringlint:noalloc
func (r *Ring) copyArc(p, off, m, at int) {
	for m > 0 {
		take := min(len(r.run(p))-off, m)
		r.emit(int(r.pieces[p].start)+off, at, int32(p))
		at, m, off = at+take, m-take, 0
		if p++; p == len(r.pieces) {
			p = 0
		}
	}
}

// emit starts a new piece at buffer slot start and new rank at, cut
// from old piece from (−1 for joining nodes), unless the slot continues
// the last piece's run, which then simply grows.
//
//ringlint:noalloc
func (r *Ring) emit(start, at int, from int32) {
	if m := len(r.nextPieces); m > 0 {
		if last := r.nextPieces[m-1]; int(last.start)+at-int(last.rank) == start {
			return
		}
	}
	r.nextPieces = append(r.nextPieces, piece{start: int32(start), rank: int32(at)}) //ringlint:allow alloc pooled piece list; growth amortizes to zero
	r.origin = append(r.origin, from)                                                //ringlint:allow alloc pooled piece list; growth amortizes to zero
}

// sortPieces indexes the new piece list, built in r.nextPieces for a
// ring of length k, by start into r.nextByStart, in O(pieces) plus a
// sort of the fragments.  A new piece that is an old one whole keeps
// the old one's place in r.byStart; every other piece (a fragment of an
// old piece, old pieces merged, a run of joining nodes) is sorted on
// its own and merged in.  Old pieces are disjoint runs of the buffer,
// so the merge is sorted.
//
//ringlint:noalloc
func (r *Ring) sortPieces(k int) {
	if cap(r.whole) < len(r.pieces) {
		r.whole = make([]int32, 0, 2*len(r.pieces)) //ringlint:allow alloc pooled scratch; growth amortizes to zero
	}
	whole := r.whole[:len(r.pieces)]
	for i := range whole {
		whole[i] = -1
	}
	frags := r.cuts[:0] // the cut list is spent; reuse it
	next := r.nextPieces
	for j, p := range next {
		end := k
		if j+1 < len(next) {
			end = int(next[j+1].rank)
		}
		if o := r.origin[j]; o >= 0 {
			if r.pieces[o].start == p.start && end-int(p.rank) == len(r.run(int(o))) {
				whole[o] = int32(j)
				continue
			}
		}
		frags = append(frags, uint64(p.start)<<32|uint64(j)) //ringlint:allow alloc pooled cut list; growth amortizes to zero
	}
	slices.Sort(frags) //ringlint:allow alloc slices.Sort sorts in place
	out, f := r.nextByStart[:0], 0
	for _, e := range r.byStart {
		j := whole[uint32(e)]
		if j < 0 {
			continue
		}
		key := e>>32<<32 | uint64(j)
		for ; f < len(frags) && frags[f] < key; f++ {
			out = append(out, frags[f]) //ringlint:allow alloc pooled piece index; growth amortizes to zero
		}
		out = append(out, key) //ringlint:allow alloc pooled piece index; growth amortizes to zero
	}
	r.nextByStart = append(out, frags[f:]...) //ringlint:allow alloc pooled piece index; growth amortizes to zero
	r.whole, r.cuts = whole, frags[:0]
}

// nextCut finds the first cut at or after rank i, wrapping around the
// ring once, and returns its rank and node.
//
//ringlint:noalloc
func (r *Ring) nextCut(i int) (rank, node int, found bool) {
	if len(r.cuts) == 0 {
		return 0, 0, false
	}
	lo, hi := 0, len(r.cuts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(r.cuts[m]>>32) < i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(r.cuts) {
		lo = 0
	}
	c := r.cuts[lo]
	return int(c >> 32), int(uint32(c)), true
}

// onNewRing reports whether v is on the ring build just wrote (valid
// until apply commits it).
//
//ringlint:noalloc
func (r *Ring) onNewRing(v int) bool {
	if v < 0 || v >= len(r.loc) {
		return false
	}
	if r.loc[v] < 0 {
		return r.placed.Has(v) // a joining node
	}
	s, dirty := r.succ.Get(v)
	return !dirty || s >= 0 // not leaving
}

// newSucc is v's successor on the ring build just wrote, −1 when v is
// not on it.
//
//ringlint:noalloc
func (r *Ring) newSucc(v int) int {
	if !r.onNewRing(v) {
		return -1
	}
	if s, dirty := r.succ.Get(v); dirty {
		return int(s)
	}
	b := int(r.loc[v])
	return r.after(r.pieceOf(b), b)
}

// leavingInOrder lists the n leaving nodes in old-ring order, read off
// the sorted cuts (every leaving node is cut).
//
//ringlint:noalloc
func (r *Ring) leavingInOrder(n int) []int {
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n) //ringlint:allow alloc fresh per change: callers retain Diff.Removed
	for _, c := range r.cuts {
		v := int(uint32(c))
		if s, _ := r.succ.Get(v); s < 0 {
			out = append(out, v) //ringlint:allow alloc within the capacity made above
		}
	}
	return out
}

// cut records x, if it is on the ring, as an arc end at its rank, and
// takes x's old hop out of the pending hash.
//
//ringlint:noalloc
func (r *Ring) cut(x int) {
	if r.loc[x] >= 0 {
		p, i := r.locate(x)
		r.cuts = append(r.cuts, uint64(i)<<32|uint64(x)) //ringlint:allow alloc pooled cut list; growth amortizes to zero
		r.next -= edgeHash(int32(x), int32(r.after(p, int(r.loc[x]))))
	}
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
