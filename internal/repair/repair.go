// Package repair implements incremental ring repair: given an embedded
// ring and a batch of newly failed — or newly repaired — components, it
// attempts a local patch of the existing ring instead of a full
// re-embed; the operation behind long-lived fault-evolving sessions
// (package session).
//
// Two repair tiers are provided, and for De Bruijn networks they are
// chained.  The structural tier operates on the FFC algorithm's own
// data structures (the necklace spanning tree T, its height-one
// same-label stars T_w and the Step-3 successor overrides of
// Rowley–Bose §2.2): removing a faulty necklace detaches it from its
// parent star, re-parents its orphaned children along other surviving
// shift-edge labels, and re-closes only the affected w-cycles, so the
// repaired ring still satisfies Proposition 2.1 and costs O(affected
// stars) instead of O(dⁿ).  The lifecycle is bidirectional: a faulted
// ring link whose endpoints are healthy is absorbed by reordering
// window choices within the touched star (Proposition 2.1 holds for ANY
// single-cycle member order), and Unpatch reverses the surgery — a
// repaired necklace is re-expanded into the tree, growing the ring back
// toward dⁿ.  The generic splice tier works on any unit-dilation
// topology with no structural knowledge at all: it cuts the faulted
// nodes and links out of the ring, reconnects the surviving arcs
// through direct links or bounded-BFS bypass paths over off-ring
// survivors, and on heal re-inserts the repaired processors either
// directly between adjacent ring neighbors or via a multi-hop bypass
// path on one side.
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
// nodes (the ring is flattened back to one piece now and then), and a
// rejected delta leaves the ring untouched.  Step is the session's entry point; Patch
// and Unpatch are Step plus a copy of the ring; Embed and Restore
// install a full ring, and re-embeds report their Removed/Added through
// a bitset diff.
//
// Any Unsupported outcome must be followed by Embed to re-synchronize
// the ladder with a full re-embed.
package repair

import (
	"math/bits"
	"time"

	"debruijnring/internal/dense"
	"debruijnring/topology"
)

// TierStep records one repair tier's attempt during a single Step: which
// tier ran, how it answered, how much structure it touched (stars
// re-closed for the FFC tier, arcs/insertions spliced for the splice
// tier) and how long it took.
type TierStep struct {
	Tier    string // "ffc" or "splice"
	Outcome Outcome
	Touched int
	Elapsed time.Duration
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

// String renders the outcome for stats and journal events.
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

// ParseOutcome inverts String, for journal and stats consumers that
// round-trip outcomes through their text form.
func ParseOutcome(s string) (Outcome, bool) {
	switch s {
	case "unsupported":
		return Unsupported, true
	case "noop":
		return Noop, true
	case "patched":
		return Patched, true
	case "reordered":
		return Reordered, true
	case "readmitted":
		return Readmitted, true
	case "spliced":
		return Spliced, true
	}
	return Unsupported, false
}

// genericPatcher repairs rings on any unit-dilation topology by cutting
// out the faulted components and re-splicing the surviving arcs.  Bypass
// paths run through off-ring survivors only, so it shines once faults
// have already shrunk the ring below the network size and degrades to
// Unsupported (→ full re-embed) on a fresh Hamiltonian ring whose cut
// ends are not directly linked.
//
// The tier works on a private copy of the ring, whose membership its
// partial-heal check reads, and reports each ring change as a delta
// against the ring before it (emit), which the owning Patcher applies.
type genericPatcher struct {
	net    topology.RingEmbedder
	valid  bool
	ring   []int
	faults topology.FaultSet

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
	// ring.  All pooled across calls.
	succ   dense.Sparse
	edited []int
	leave  []int
	join   []int
	out    delta

	// Pooled dense scratch, reused across every patch/unpatch/bypass so
	// a steady-state splice event allocates no ring-sized buffer.  All
	// sets are epoch-stamped (O(1) reset, internal/dense).
	//
	// onRing is *incremental* ring-membership state: it stays valid
	// across heal events (insertAfter registers new members) and is only
	// rebuilt — lazily, via ensureOnRing — after a ring replacement that
	// bypassed it (onRingOK false).  A successful patch refreshes it for
	// free by swapping in the used set, whose members are by then exactly
	// the new ring.
	used     dense.Set  // patch: surviving arcs + committed bypass interiors
	onRing   dense.Set  // incremental ring membership (see onRingOK)
	onRingOK bool       // onRing matches p.ring
	prev     dense.Ints // bypass BFS parent pointers, epoch-reset per attempt
	frontier []int32    // bypass BFS frontier double-buffer
	nextF    []int32
	succBuf  []int // topology.Successors scratch
	pathBuf  []int // bypass path reconstruction (returned; valid until next bypass)
	seqBuf   []int // insertHealed splice sequence
	segFlat  []int // surviving arcs, flattened
	segEnds  []int // exclusive end offsets into segFlat, one per arc
	ringNext []int // patch result double-buffer, swapped with ring
}

// maxBypassLen bounds the length of one bypass path: twice the diameter
// scale log₂(size) covers every adapter in the repo (De Bruijn and Kautz
// diameters are n, the hypercube's is log₂ size, the butterfly's Θ(n)).
func (p *genericPatcher) maxBypassLen() int {
	return 2*bits.Len(uint(p.net.Nodes())) + 2 //ringlint:allow alloc adapter Nodes is a field read on every in-tree topology
}

func (p *genericPatcher) Embed(f topology.FaultSet) ([]int, *topology.EmbedInfo, error) {
	ring, info, err := p.net.EmbedRing(f)
	if err != nil {
		// Nothing was mutated: a rejected fault set (out-of-range
		// coordinates, over-tolerance batch) must not poison a healthy
		// patcher — the previous ring state stays patchable.
		return nil, nil, err
	}
	p.reset(ring, f, info.Dilation)
	return ring, info, nil
}

// reset installs a freshly embedded ring.  Dilation-2 closed walks
// revisit nodes, so splice surgery does not apply to them; the patcher
// stays invalid and every patch reports Unsupported.
func (p *genericPatcher) reset(ring []int, f topology.FaultSet, dilation int) {
	p.ring = append(p.ring[:0], ring...)
	p.faults = f.Canonical()
	p.valid = dilation <= 1 && len(ring) <= p.net.Nodes()
	p.onRingOK = false
}

// ensureOnRing rebuilds the pooled ring-membership set if (and only if)
// the ring was replaced since it was last valid.  Callers must hold
// p.valid, which guarantees every ring node is in [0, Nodes()).
func (p *genericPatcher) ensureOnRing() {
	if p.onRingOK {
		return
	}
	p.onRing.Reset(p.net.Nodes())
	for _, v := range p.ring {
		p.onRing.Add(v)
	}
	p.onRingOK = true
}

// onRingHas reports ring membership from the pooled incremental set.
// v must be in [0, Nodes()) and the patcher valid — the owning Patcher
// range-checks every batch before either tier sees it.
func (p *genericPatcher) onRingHas(v int) bool {
	p.ensureOnRing()
	return p.onRing.Has(v)
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

// restore installs ring and f under the snapshot st.
func (p *genericPatcher) restore(st *SpliceState, ring []int, f topology.FaultSet) {
	dilation := 1
	if st != nil && !st.Splicable {
		// The snapshot records an unsplicable embedding (a dilation-2
		// closed walk): stay invalid even when the walk's nodes happen
		// to be distinct.
		dilation = 2
	}
	// Journals from before the splicability bit carry no snapshot; for
	// them (st == nil) the distinct-node check below is the only
	// available gate.
	p.reset(ring, f, dilation)
	if p.valid {
		// The distinctness scan doubles as the onRing build.  Restored
		// rings come from journals, so range-check before dense indexing:
		// a corrupt ring must invalidate the patcher, not panic it.
		n := p.net.Nodes()
		p.onRing.Reset(n)
		for _, v := range ring {
			if v < 0 || v >= n || !p.onRing.Add(v) {
				p.valid = false
				break
			}
		}
		p.onRingOK = p.valid
	}
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

// emit expresses the current call's surgery as a delta against the ring
// before the call.  The new ring is read from p.ring[0]: the first
// surviving arc's head after a patch, the unchanged first node after a
// heal.  The result is pooled: valid until the next call.
//
//ringlint:noalloc
func (p *genericPatcher) emit() *delta {
	d := &p.out
	d.Start, d.Length = p.ring[0], len(p.ring)
	d.Nodes, d.Succ = d.Nodes[:0], d.Succ[:0]
	for _, x := range p.edited {
		v, _ := p.succ.Get(x)
		d.Nodes = append(d.Nodes, x)    //ringlint:allow alloc pooled delta; growth amortizes to zero
		d.Succ = append(d.Succ, int(v)) //ringlint:allow alloc pooled delta; growth amortizes to zero
	}
	d.Leave, d.Join = p.leave, p.join
	return d
}

// patch cuts one fault batch out of the ring, reconnecting the surviving
// arcs, and logs the cut for emit: each arc tail and bypass interior
// with its new successor, the bypass interiors as joining, the faulty
// ring nodes as leaving.
func (p *genericPatcher) patch(add topology.FaultSet) Outcome {
	p.resetLog()
	if !p.valid || len(p.ring) == 0 {
		return Unsupported
	}
	combined := p.faults.Union(add)
	undirected := topology.Undirected(p.net)
	badNode := combined.NodeSet()
	badEdge := combined.EdgeSet()
	edgeCut := func(u, v int) bool {
		if badEdge[topology.Edge{From: u, To: v}] {
			return true
		}
		return undirected && badEdge[topology.Edge{From: v, To: u}]
	}

	k := len(p.ring)
	hit := false
	for i, v := range p.ring {
		if badNode[v] || edgeCut(v, p.ring[(i+1)%k]) {
			hit = true
			break
		}
	}
	if !hit {
		p.faults = combined
		return Noop
	}

	// Cut the ring into surviving arcs, flattened into the pooled
	// segFlat/segEnds pair (segment i is segFlat[segEnds[i-1]:segEnds[i]]).
	// Start the scan just past a severed hop so segments never straddle
	// the wrap-around.
	s := 0
	for i := 0; i < k; i++ {
		prev := p.ring[(i-1+k)%k]
		if badNode[prev] || edgeCut(prev, p.ring[i]) {
			s = i
			break
		}
	}
	p.segFlat = p.segFlat[:0]
	p.segEnds = p.segEnds[:0]
	for j := 0; j < k; j++ {
		v := p.ring[(s+j)%k]
		if badNode[v] {
			p.leave = append(p.leave, v)
			p.closeSeg()
			continue
		}
		p.segFlat = append(p.segFlat, v)
		if next := p.ring[(s+j+1)%k]; !badNode[next] && edgeCut(v, next) {
			p.segEnds = append(p.segEnds, len(p.segFlat))
		}
	}
	p.closeSeg()
	nseg := len(p.segEnds)
	if nseg == 0 {
		p.valid = false
		return Unsupported
	}

	// Reconnect consecutive arcs in ring order: a direct surviving link,
	// or a bypass path through fault-free nodes not already in use.
	// bypass never marks candidates itself — only paths actually woven
	// into the ring are committed to used, so a failed attempt for one
	// cut edge cannot shrink the search space of the next.
	p.used.Reset(p.net.Nodes())
	for _, v := range p.segFlat {
		p.used.Add(v)
	}
	newRing := p.ringNext[:0]
	for gi := 0; gi < nseg; gi++ {
		lo := 0
		if gi > 0 {
			lo = p.segEnds[gi-1]
		}
		seg := p.segFlat[lo:p.segEnds[gi]]
		newRing = append(newRing, seg...)
		ni := (gi + 1) % nseg
		nlo := 0
		if ni > 0 {
			nlo = p.segEnds[ni-1]
		}
		tail, head := seg[len(seg)-1], p.segFlat[nlo]
		path, ok := p.bypass(tail, head, badNode, edgeCut, &p.used)
		if !ok {
			p.valid = false
			return Unsupported
		}
		p.touched++
		for _, x := range path {
			p.used.Add(x)
			p.setSucc(tail, x)
			tail = x
		}
		p.setSucc(tail, head)
		p.join = append(p.join, path...)
		newRing = append(newRing, path...)
	}
	p.ringNext = p.ring
	p.ring = newRing
	// used now holds exactly the new ring's membership (arcs + committed
	// interiors): swap it in as the incremental onRing state for free.
	p.used, p.onRing = p.onRing, p.used
	p.onRingOK = true
	p.faults = combined
	return Patched
}

// closeSeg ends the currently open arc, if any, at len(segFlat).
//
//ringlint:noalloc
func (p *genericPatcher) closeSeg() {
	if n := len(p.segFlat); n > 0 && (len(p.segEnds) == 0 || p.segEnds[len(p.segEnds)-1] < n) {
		p.segEnds = append(p.segEnds, n) //ringlint:allow alloc pooled segment index; growth amortizes to zero
	}
}

// unpatch absorbs healed components.  Healed links are pure
// bookkeeping (the ring never traverses a faulty wire, so nothing needs
// rerouting — but dropping them from the fault set lets later bypasses
// use the restored wire again).  Each healed processor is re-inserted
// between a pair of adjacent ring neighbors: directly when it links
// both — reversing the cut-and-bypass of the original fault — or, the
// multi-hop heal, via a bounded-BFS bypass path through off-ring
// fault-free survivors on one side, which pulls those survivors back
// onto the ring with it.  A healed node with no insertion slot at all
// stays off-ring (the ring remains valid; a later Embed re-balances),
// so unpatch never reports Unsupported for slotless heals alone.
func (p *genericPatcher) unpatch(remove topology.FaultSet) Outcome {
	p.resetLog()
	p.healed = p.healed[:0]
	if !p.valid || len(p.ring) == 0 {
		return Unsupported
	}
	remove = remove.Canonical()
	reduced := p.faults.Minus(remove)
	healed := p.faults.Minus(reduced) // the part of remove actually present
	p.faults = reduced
	p.healed = append(p.healed, healed.Nodes...)
	if len(healed.Nodes) == 0 {
		return Noop
	}

	undirected := topology.Undirected(p.net)
	badEdge := reduced.EdgeSet()
	edgeCut := func(u, v int) bool {
		if badEdge[topology.Edge{From: u, To: v}] {
			return true
		}
		return undirected && badEdge[topology.Edge{From: v, To: u}]
	}
	badNode := reduced.NodeSet()
	// The pooled membership set survives from the last event when the
	// ring has not been replaced since; otherwise one rebuild here.
	p.ensureOnRing()

	changed := false
	for _, v := range healed.Nodes {
		if p.onRing.Has(v) {
			// Defensive: a faulty node is never on the ring.
			continue
		}
		if p.insertHealed(v, badNode, edgeCut) {
			changed = true
			p.touched++
		}
	}
	if !changed {
		return Noop
	}
	return Readmitted
}

// insertHealed re-inserts one healed processor v into the ring.  The
// direct slot — a ring hop u→w with surviving wires u→v→w — is the
// exact inverse of a node-fault splice and is tried first.  Failing
// that, the multi-hop heal opens one ring hop u→w into u → v → … → w
// (or u → … → v → w) with the longer side running through off-ring
// fault-free survivors found by the same bounded BFS the fault
// direction uses for bypasses.
func (p *genericPatcher) insertHealed(v int, badNode map[int]bool, edgeCut func(int, int) bool) bool {
	k := len(p.ring)
	for i, u := range p.ring {
		w := p.ring[(i+1)%k]
		if p.net.IsEdge(u, v) && p.net.IsEdge(v, w) && !edgeCut(u, v) && !edgeCut(v, w) {
			p.seqBuf = append(p.seqBuf[:0], v)
			p.insertAfter(i, p.seqBuf)
			return true
		}
	}
	for i, u := range p.ring {
		w := p.ring[(i+1)%k]
		if p.net.IsEdge(u, v) && !edgeCut(u, v) {
			if path, ok := p.bypass(v, w, badNode, edgeCut, &p.onRing); ok {
				p.seqBuf = append(p.seqBuf[:0], v)
				p.seqBuf = append(p.seqBuf, path...)
				p.insertAfter(i, p.seqBuf)
				return true
			}
		}
		if p.net.IsEdge(v, w) && !edgeCut(v, w) {
			if path, ok := p.bypass(u, v, badNode, edgeCut, &p.onRing); ok {
				p.seqBuf = append(p.seqBuf[:0], path...)
				p.seqBuf = append(p.seqBuf, v)
				p.insertAfter(i, p.seqBuf)
				return true
			}
		}
	}
	return false
}

// insertAfter splices seq into the ring after position i — the hop
// u → w becomes u → seq… → w — logging the new successors and joining
// nodes for emit and registering the new members in the incremental
// onRing set (which thereby stays valid across consecutive heal events).
//
//ringlint:noalloc
func (p *genericPatcher) insertAfter(i int, seq []int) {
	old := len(p.ring)
	u, w := p.ring[i], p.ring[(i+1)%old]
	p.ring = append(p.ring, seq...) //ringlint:allow alloc pooled ring buffer; bounded by node count
	copy(p.ring[i+1+len(seq):], p.ring[i+1:old])
	copy(p.ring[i+1:i+1+len(seq)], seq)
	for _, x := range seq {
		p.onRing.Add(x)
		p.setSucc(u, x)
		u = x
	}
	p.setSucc(u, w)
	p.join = append(p.join, seq...) //ringlint:allow alloc pooled edit log; growth amortizes to zero
}

// bypass finds a path from tail to head whose interior avoids faulty and
// already-used nodes, shorter than maxBypassLen hops.  It returns the
// interior nodes (empty for a direct link), valid only until the next
// bypass call.  The search runs entirely on pooled epoch-stamped
// scratch, reset per attempt, and never mutates used — the caller
// commits accepted paths, so one attempt's candidate marks cannot leak
// into the next.
//
//ringlint:noalloc
func (p *genericPatcher) bypass(tail, head int, badNode map[int]bool, edgeCut func(int, int) bool, used *dense.Set) ([]int, bool) {
	if tail == head {
		// A single one-node segment closing on itself needs a self-loop,
		// which no adapter's verification accepts as a ring.
		return nil, false
	}
	//ringlint:allow alloc adapter IsEdge and the edgeCut closure are arithmetic on every in-tree topology
	if p.net.IsEdge(tail, head) && !edgeCut(tail, head) {
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
				if w == u || edgeCut(u, w) { //ringlint:allow alloc edgeCut closures are arithmetic over captured fault sets
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
				if badNode[w] || used.Has(w) || p.prev.Has(w) {
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
