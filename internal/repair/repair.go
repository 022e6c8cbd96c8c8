// Package repair implements incremental ring repair: given an embedded
// ring and a batch of newly failed — or newly repaired — components, it
// attempts a local patch of the existing ring instead of a full
// re-embed; the operation behind long-lived fault-evolving sessions
// (package session).
//
// Two repair tiers are provided, and for De Bruijn networks they are
// chained.  The structural tier operates on the FFC algorithm's own
// data structures (Rowley–Bose §2.2), and on nothing else: the necklace
// spanning tree T, held as each necklace's label and each star's
// centre, from which every height-one same-label star T_w follows, and
// the Step-3 successor overrides.  Removing a faulty necklace detaches
// it from its parent star, re-parents its orphaned children along other
// surviving shift-edge labels, and re-closes only the affected
// w-cycles, so the repaired ring still satisfies Proposition 2.1 and
// costs O(affected stars) instead of O(dⁿ).  The lifecycle is
// bidirectional: a faulted ring link whose endpoints are healthy is
// absorbed by reordering window choices within the touched star
// (Proposition 2.1 holds for ANY single-cycle member order), and
// Unpatch reverses the surgery — a repaired necklace is re-expanded
// into the tree, growing the ring back toward dⁿ.  The generic splice tier works on any unit-dilation
// topology with no structural knowledge at all: it cuts the faulted
// nodes and links out of the ring, reconnects the surviving arcs
// through direct links or bounded-BFS bypass paths over off-ring
// survivors, and on heal re-inserts the repaired processors either
// directly between adjacent ring neighbors or via a multi-hop bypass
// path on one side.  Neither tier keeps a fault set of its own, and the
// splice tier keeps no ring: each call reads the Patcher's cumulative
// fault sets before and after the batch (and the splice tier its ring),
// and both answer in the same change format.  Both tiers and the ring's
// seam checks ask those canonical sets the one membership test — is a
// processor faulty, does a hop cross a failed link, in either
// orientation on an undirected network (topology.FaultSet's HasNode,
// HasEdge and Severs) — by binary search, building no map per call.
//
// For(net) is the one entry point.  It returns a Patcher that owns the
// ring and its cumulative fault set and runs the per-topology ladder:
// De Bruijn networks get the chain — the FFC tier first, and on any of
// its Unsupported exits (root-necklace loss, non-spanning survivor
// graphs, unreorderable stars, failed reattach) the splice tier attempts
// a local bypass repair before the caller pays for a cold re-embed —
// and every other topology gets the splice tier alone.
//
// Both tiers report a repair in one change format, a successor-edit
// delta: the nodes whose ring successor changed with their new
// successors, the nodes leaving and joining the ring, and the new length
// (Proposition 2.1: the ring is a successor rule, and a repair rewrites
// only the successors of the nodes it touches).  The Patcher's Ring is a
// piece table, runs of an append-only node buffer in ring order, and
// applies a delta by slicing its piece list at the edited nodes: the
// unchanged arcs are neither copied nor reindexed.  It accepts a delta
// only if the seams prove a valid ring: every edited hop a surviving
// link, every old arc used once, the walk closing at the promised
// length, no new fault left on the ring, the length at least dⁿ − nf
// (LowerBound).  A structural repair thus costs O(stars touched) plus
// O(pieces + delta · log pieces) in the ring, never a pass over dⁿ
// nodes (the ring is flattened back to one piece now and then); a
// splice repair still reads and scans the whole ring.  A rejected delta
// leaves the ring untouched.  Absorb is the session's entry point, live
// and on replay: the f ≤ n gate, the local tiers (Step) and the
// re-embed, naming the event's Resolution.  Patch and Unpatch are Step
// plus a copy of the ring; Embed and Restore install a full ring, and
// re-embeds report their Removed/Added through a bitset diff.
//
// Any Unsupported outcome of Step must be followed by Embed to
// re-synchronize the ladder with a full re-embed, as Absorb does.
package repair

import (
	"math/bits"
	"time"

	"debruijnring/internal/dense"
	"debruijnring/topology"
)

// TierStep records one rung's attempt during a single Absorb or Step:
// which rung of the FFC → splice → re-embed ladder ran, how it
// answered, how much structure it touched (stars re-closed for the FFC
// tier, arcs/insertions spliced for the splice tier) and how long it
// took, in the form journal and watch events carry it.
type TierStep struct {
	Tier    string        `json:"tier"`    // "ffc", "splice" or "reembed"
	Outcome string        `json:"outcome"` // Outcome.String, or "ok"/"error" for the re-embed
	Touched int           `json:"touched,omitempty"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Outcome classifies one Step.
type Outcome int

const (
	// Unsupported means the ladder cannot absorb the batch locally; the
	// ring is unchanged and the caller must fall back to Embed (full
	// re-embed), until which the tiers' incremental state is invalid.
	Unsupported Outcome = iota
	// Noop means the batch does not touch the current ring (off-component
	// nodes, already-faulty necklaces, links the ring does not use); the
	// ring is unchanged.
	Noop
	// Patched means the ring was locally repaired.
	Patched
	// Reordered means an on-ring link fault was absorbed without
	// removing any necklace, by reordering window choices within the
	// touched stars.
	Reordered
	// Readmitted means a heal re-admitted repaired components locally
	// (the ring grew back).
	Readmitted
	// Spliced means the structural tier declined but the generic splice
	// tier absorbed the batch by local bypass surgery on the live ring
	// (De Bruijn chains only).
	Spliced
)

// String renders the outcome for tier traces.
func (o Outcome) String() string {
	switch o {
	case Noop:
		return "noop"
	case Patched:
		return "patched"
	case Reordered:
		return "reordered"
	case Readmitted:
		return "readmitted"
	case Spliced:
		return "spliced"
	}
	return "unsupported"
}

// Resolution names how one fault or heal event was served: the rung of
// the ladder that resolved it.  Its String is the journal's repair
// value and the tier label of the session metrics.  The values count
// from 0, the ring-changing rungs first in ladder order, so callers
// index arrays by them.
type Resolution uint8

const (
	ResLocal    Resolution = iota // the FFC tier, or off De Bruijn the splice tier alone
	ResSplice                     // the splice tier, after the FFC tier declined
	ResReembed                    // a full re-embed, after the local tiers or the f ≤ n bound
	ResNoop                       // the ring did not change
	ResRejected                   // nothing, re-embed included, absorbed the batch
	NumResolutions
)

var resolutionNames = [NumResolutions]string{"local", "splice", "reembed", "noop", "rejected"}

// String returns the journal's repair value for r.
func (r Resolution) String() string { return resolutionNames[r] }

// genericPatcher repairs rings on any unit-dilation topology by cutting
// out the faulted components and re-splicing the surviving arcs.  Bypass
// paths run through off-ring survivors only, so it shines once faults
// have already shrunk the ring below the network size and degrades to
// Unsupported (→ full re-embed) on a fresh Hamiltonian ring whose cut
// ends are not directly linked.
//
// The tier keeps no ring and no fault set.  Each patch or unpatch reads
// the ring the Patcher owns, materialized once into pooled scratch, and
// the canonical fault sets Step hands it, whose HasNode and Severs
// screen every ring node, hop and bypass candidate, and reports the ring
// change as a delta against that ring (emit), which the Patcher applies.
// Between calls it keeps only the splicable bit.
type genericPatcher struct {
	net topology.RingEmbedder

	// valid is the splicable bit: the Patcher's ring is a simple cycle
	// (dilation ≤ 1) the tier may cut and splice.  Embed and Restore set
	// it; a batch the tier cannot splice, or a delta the ring rejects,
	// clears it.  The tier alone then declines until the next Embed or
	// Restore; on the chain the ladder sets it again before every attempt.
	valid bool

	// touched counts the splice operations of the most recent
	// patch/unpatch (arcs reconnected, processors re-inserted); healed
	// lists the processors the most recent unpatch took off the fault
	// set.
	touched int
	healed  []int

	// The edit log of the current patch/unpatch, from which emit builds
	// its delta.  setSucc records each node whose successor changed once
	// (succ holds the latest successor, edited the first-write order);
	// leave and join collect the nodes dropping off and coming onto the
	// ring.  succ doubles as the call's membership record: a node is on
	// the ring being built if it is on the Patcher's ring or has an entry
	// in succ (taken).  All pooled across calls.
	succ   dense.Sparse
	edited []int
	leave  []int
	join   []int
	out    delta

	// Pooled per-call scratch, reused across every patch/unpatch/bypass
	// so a steady-state splice event allocates no ring-sized buffer.
	cur      []int32    // the Patcher's ring, read once per call; heals insert into it
	arcs     []int      // patch: each surviving arc's first and last position in cur
	prev     dense.Ints // bypass BFS parent pointers, epoch-reset per attempt
	frontier []int32    // bypass BFS frontier double-buffer
	nextF    []int32
	succBuf  []int // topology.Successors scratch
	pathBuf  []int // bypass path reconstruction (returned; valid until next bypass)
	seqBuf   []int // insertHealed splice sequence
}

// maxBypassLen bounds the length of one bypass path: twice the diameter
// scale log₂(size) covers every adapter in the repo (De Bruijn and Kautz
// diameters are n, the hypercube's is log₂ size, the butterfly's Θ(n)).
func (p *genericPatcher) maxBypassLen() int {
	return 2*bits.Len(uint(p.net.Nodes())) + 2 //ringlint:allow alloc adapter Nodes is a field read on every in-tree topology
}

// SpliceState is the splice tier's snapshot: the one bit of incremental
// state the session's (ring, faults) pair cannot reconstruct, whether
// the embedding was splicable (dilation ≤ 1).  Before this was
// persisted, Restore trusted node distinctness alone, and a restored
// dilation-2 closed walk with coincidentally distinct nodes would have
// been spliced illegally.
type SpliceState struct {
	Splicable bool `json:"splicable"`
}

func (p *genericPatcher) snapshot() *SpliceState {
	return &SpliceState{Splicable: p.valid}
}

// resetLog empties the edit log; patch and unpatch start with it.
//
//ringlint:noalloc
func (p *genericPatcher) resetLog() {
	p.touched = 0
	p.succ.Reset()
	p.edited, p.leave, p.join = p.edited[:0], p.leave[:0], p.join[:0]
}

// setSucc logs v as x's new ring successor; a later write for the same
// x (a second insertion into the same hop) keeps only the final one.
//
//ringlint:noalloc
func (p *genericPatcher) setSucc(x, v int) {
	if p.succ.Set(x, int32(v)) {
		p.edited = append(p.edited, x) //ringlint:allow alloc pooled edit log; growth amortizes to zero
	}
}

// taken reports whether v already has a place on the ring the current
// call builds: on the Patcher's ring r, or given a successor by this
// call (a bypass interior or a re-inserted processor).  Faulty nodes are
// screened separately, so for a patch this is exactly the surviving arcs
// plus the committed bypass interiors, and for a heal the ring plus the
// call's insertions.
//
//ringlint:noalloc
func (p *genericPatcher) taken(r *Ring, v int) bool {
	return r.loc[v] >= 0 || p.succ.Has(v)
}

// emit expresses the current call's surgery as a delta against the
// Patcher's ring; patch and unpatch have set its Start and Length.  The
// result is pooled: valid until the next call.
//
//ringlint:noalloc
func (p *genericPatcher) emit() *delta {
	d := &p.out
	d.Nodes, d.Succ = d.Nodes[:0], d.Succ[:0]
	for _, x := range p.edited {
		v, _ := p.succ.Get(x)
		d.Nodes = append(d.Nodes, x)    //ringlint:allow alloc pooled delta; growth amortizes to zero
		d.Succ = append(d.Succ, int(v)) //ringlint:allow alloc pooled delta; growth amortizes to zero
	}
	d.Leave, d.Join = p.leave, p.join
	return d
}

// patch cuts a fault batch out of the Patcher's ring r, where next is
// the fault set after the batch, reconnecting the surviving arcs, and
// logs the cut for emit: each arc tail and bypass interior with its new
// successor, the bypass interiors as joining, the faulty ring nodes as
// leaving.  The new ring starts at the first surviving arc's head.
func (p *genericPatcher) patch(r *Ring, next topology.FaultSet) Outcome {
	p.resetLog()
	if !p.valid || r.k == 0 {
		return Unsupported
	}
	undirected := topology.Undirected(p.net)

	ring := r.appendTo(p.cur[:0])
	p.cur = ring
	k := len(ring)
	hit := false
	for i, v := range ring {
		if next.HasNode(int(v)) || next.Severs(undirected, int(v), int(ring[(i+1)%k])) {
			hit = true
			break
		}
	}
	if !hit {
		return Noop
	}

	// Cut the ring into surviving arcs, each kept as the positions of its
	// first and last node.  Start the scan just past a severed hop so
	// arcs never straddle the wrap-around.
	s := 0
	for i := 0; i < k; i++ {
		prev := int(ring[(i-1+k)%k])
		if next.HasNode(prev) || next.Severs(undirected, prev, int(ring[i])) {
			s = i
			break
		}
	}
	p.arcs = p.arcs[:0]
	first := -1 // the open arc's first position
	for j := 0; j < k; j++ {
		i := (s + j) % k
		v := int(ring[i])
		if next.HasNode(v) {
			p.leave = append(p.leave, v)
			if first >= 0 {
				p.arcs = append(p.arcs, first, (i-1+k)%k)
				first = -1
			}
			continue
		}
		if first < 0 {
			first = i
		}
		if w := int(ring[(i+1)%k]); !next.HasNode(w) && next.Severs(undirected, v, w) {
			p.arcs = append(p.arcs, first, i)
			first = -1
		}
	}
	if first >= 0 {
		p.arcs = append(p.arcs, first, (s+k-1)%k)
	}
	if len(p.arcs) == 0 {
		p.valid = false
		return Unsupported
	}

	// Reconnect consecutive arcs in ring order: a direct surviving link,
	// or a bypass path through fault-free nodes not already taken.
	// bypass never marks candidates itself: only paths actually woven
	// into the ring enter the edit log, so a failed attempt for one cut
	// edge cannot shrink the search space of the next.
	for a := 0; a < len(p.arcs); a += 2 {
		tail, head := int(ring[p.arcs[a+1]]), int(ring[p.arcs[(a+2)%len(p.arcs)]])
		path, ok := p.bypass(r, tail, head, next)
		if !ok {
			p.valid = false
			return Unsupported
		}
		p.touched++
		for _, x := range path {
			p.setSucc(tail, x)
			tail = x
		}
		p.setSucc(tail, head)
		p.join = append(p.join, path...)
	}
	p.out.Start, p.out.Length = int(ring[p.arcs[0]]), k-len(p.leave)+len(p.join)
	return Patched
}

// unpatch absorbs healed components: old is the fault set before the
// batch, next the one after.  Healed links are pure bookkeeping (the
// ring never traverses a faulty wire, so nothing needs rerouting — but
// dropping them from the fault set lets later bypasses use the restored
// wire again).  Each healed processor is re-inserted between a pair of
// adjacent ring neighbors: directly when it links both — reversing the
// cut-and-bypass of the original fault — or, the multi-hop heal, via a
// bounded-BFS bypass path through off-ring fault-free survivors on one
// side, which pulls those survivors back onto the ring with it.  A
// healed node with no insertion slot at all stays off-ring (the ring
// remains valid; a later Embed re-balances), so unpatch never reports
// Unsupported for slotless heals alone.  The ring keeps its first node.
func (p *genericPatcher) unpatch(r *Ring, old, next topology.FaultSet) Outcome {
	p.resetLog()
	p.healed = p.healed[:0]
	if !p.valid || r.k == 0 {
		return Unsupported
	}
	p.healed = append(p.healed, old.Minus(next).Nodes...)
	if len(p.healed) == 0 {
		return Noop
	}
	p.cur = r.appendTo(p.cur[:0])
	changed := false
	for _, v := range p.healed {
		if p.taken(r, v) {
			// Defensive: a faulty node is never on the ring.
			continue
		}
		if p.insertHealed(r, v, next) {
			changed = true
			p.touched++
		}
	}
	if !changed {
		return Noop
	}
	p.out.Start, p.out.Length = int(p.cur[0]), len(p.cur)
	return Readmitted
}

// insertHealed re-inserts one healed processor v into the ring in cur.
// The direct slot — a ring hop u→w with surviving wires u→v→w — is the
// exact inverse of a node-fault splice and is tried first.  Failing
// that, the multi-hop heal opens one ring hop u→w into u → v → … → w
// (or u → … → v → w) with the longer side running through off-ring
// fault-free survivors found by the same bounded BFS the fault
// direction uses for bypasses.  f is the fault set after the heal.
func (p *genericPatcher) insertHealed(r *Ring, v int, f topology.FaultSet) bool {
	undirected := topology.Undirected(p.net)
	k := len(p.cur)
	for i, u32 := range p.cur {
		u, w := int(u32), int(p.cur[(i+1)%k])
		if p.net.IsEdge(u, v) && p.net.IsEdge(v, w) && !f.Severs(undirected, u, v) && !f.Severs(undirected, v, w) {
			p.seqBuf = append(p.seqBuf[:0], v)
			p.insertAfter(i, p.seqBuf)
			return true
		}
	}
	for i, u32 := range p.cur {
		u, w := int(u32), int(p.cur[(i+1)%k])
		if p.net.IsEdge(u, v) && !f.Severs(undirected, u, v) {
			if path, ok := p.bypass(r, v, w, f); ok {
				p.seqBuf = append(p.seqBuf[:0], v)
				p.seqBuf = append(p.seqBuf, path...)
				p.insertAfter(i, p.seqBuf)
				return true
			}
		}
		if p.net.IsEdge(v, w) && !f.Severs(undirected, v, w) {
			if path, ok := p.bypass(r, u, v, f); ok {
				p.seqBuf = append(p.seqBuf[:0], path...)
				p.seqBuf = append(p.seqBuf, v)
				p.insertAfter(i, p.seqBuf)
				return true
			}
		}
	}
	return false
}

// insertAfter splices seq into cur after position i — the hop u → w
// becomes u → seq… → w — logging the new successors and joining nodes
// for emit.
//
//ringlint:noalloc
func (p *genericPatcher) insertAfter(i int, seq []int) {
	k := len(p.cur)
	u, w := int(p.cur[i]), int(p.cur[(i+1)%k])
	for _, x := range seq {
		p.cur = append(p.cur, int32(x)) //ringlint:allow alloc pooled scratch; bounded by node count
	}
	copy(p.cur[i+1+len(seq):], p.cur[i+1:k])
	for j, x := range seq {
		p.cur[i+1+j] = int32(x)
		p.setSucc(u, x)
		u = x
	}
	p.setSucc(u, w)
	p.join = append(p.join, seq...) //ringlint:allow alloc pooled edit log; growth amortizes to zero
}

// bypass finds a path from tail to head whose interior avoids taken
// nodes and the faults of f, shorter than maxBypassLen hops.  It
// returns the interior nodes (empty for a direct link), valid only
// until the next bypass call.  The search runs entirely on pooled epoch-stamped scratch, reset
// per attempt, and marks nothing taken — the caller commits accepted
// paths, so one attempt's candidate marks cannot leak into the next.
//
//ringlint:noalloc
func (p *genericPatcher) bypass(r *Ring, tail, head int, f topology.FaultSet) ([]int, bool) {
	if tail == head {
		// A single one-node segment closing on itself needs a self-loop,
		// which no adapter's verification accepts as a ring.
		return nil, false
	}
	undirected := topology.Undirected(p.net)
	//ringlint:allow alloc adapter IsEdge is arithmetic on every in-tree topology
	if p.net.IsEdge(tail, head) && !f.Severs(undirected, tail, head) {
		return nil, true
	}
	limit := p.maxBypassLen()
	p.prev.Reset(p.net.Nodes()) //ringlint:allow alloc adapter Nodes is a field read on every in-tree topology
	p.prev.Set(tail, -1)
	p.frontier = append(p.frontier[:0], int32(tail)) //ringlint:allow alloc pooled BFS frontier; growth amortizes to zero
	for depth := 0; depth < limit && len(p.frontier) > 0; depth++ {
		p.nextF = p.nextF[:0]
		for _, u32 := range p.frontier {
			u := int(u32)
			p.succBuf = p.net.Successors(u, p.succBuf) //ringlint:allow alloc adapter contract: Successors fills the caller's buffer in place
			for _, w := range p.succBuf {
				if w == u || f.Severs(undirected, u, w) {
					continue
				}
				if w == head {
					if u == tail {
						continue // direct link already rejected (faulty)
					}
					// Reconstruct the interior path u … tail, reversed.
					path := p.pathBuf[:0]
					for x := u; x != tail; x = int(p.prev.At(x)) {
						path = append(path, x) //ringlint:allow alloc pooled path scratch; growth amortizes to zero
					}
					for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
						path[i], path[j] = path[j], path[i]
					}
					p.pathBuf = path
					return path, true
				}
				if f.HasNode(w) || p.taken(r, w) || p.prev.Has(w) {
					continue
				}
				p.prev.Set(w, int32(u))
				p.nextF = append(p.nextF, int32(w)) //ringlint:allow alloc pooled BFS frontier; growth amortizes to zero
			}
		}
		p.frontier, p.nextF = p.nextF, p.frontier
	}
	return nil, false
}
