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
// For(net) wires the tiers per topology.  De Bruijn sessions get the
// chain (see chainPatcher): the FFC tier first, and on any of its
// Unsupported exits — root-necklace loss, non-spanning survivor graphs,
// unreorderable stars, failed reattach — the splice tier attempts a
// local bypass repair of the live ring before the caller pays for a
// cold re-embed.  Every other topology gets the splice tier alone.
//
// A patcher is a stateful, single-goroutine object owned by one session.
// Patch and Unpatch are best-effort: Patched/Reordered/Readmitted/
// Spliced results still need topology.VerifyRing by the caller, and any
// Unsupported outcome (or failed verification) must be followed by
// Embed to re-synchronize the patcher's state with a full re-embed.
package repair

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"time"

	"debruijnring/internal/dense"
	"debruijnring/topology"
)

// TierStep records one repair tier's attempt during a single Patch or
// Unpatch call: which tier ran, how it answered, how much structure it
// touched (stars re-closed for the FFC tier, arcs/insertions spliced
// for the splice tier) and how long it took.
type TierStep struct {
	Tier    string // "ffc" or "splice"
	Outcome Outcome
	Touched int
	Elapsed time.Duration
}

// Tracer is implemented by patchers that record the tier ladder each
// Patch/Unpatch call descended.  LastTrace returns the steps of the
// most recent call; the slice is owned by the patcher and only valid
// until the next Patch/Unpatch/Embed.
type Tracer interface {
	LastTrace() []TierStep
}

// Outcome classifies one Patch attempt.
type Outcome int

const (
	// Unsupported means the patcher cannot absorb the faults locally;
	// the caller must fall back to Embed (full re-embed).  The patcher's
	// incremental state is invalid until Embed succeeds.
	Unsupported Outcome = iota
	// Noop means the faults do not touch the current ring (off-component
	// nodes, already-faulty necklaces, links the ring does not use); the
	// ring is unchanged.
	Noop
	// Patched means the ring was locally repaired; the returned ring
	// replaces the old one pending the caller's verification.
	Patched
	// Reordered means an on-ring link fault was absorbed without
	// removing any necklace, by reordering window choices within the
	// touched stars; the returned ring replaces the old one pending
	// verification.
	Reordered
	// Readmitted means Unpatch re-admitted repaired components locally
	// (the ring grew back); the returned ring replaces the old one
	// pending verification.
	Readmitted
	// Spliced means the structural tier declined but the generic splice
	// tier absorbed the batch by local bypass surgery on the live ring
	// (chain patchers only); the returned ring replaces the old one
	// pending verification.
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

// Patcher maintains the incremental-repair state of one ring.
type Patcher interface {
	// Embed performs a full re-embed for the cumulative fault set f,
	// resetting the patcher's incremental state.  It is also the initial
	// embedding of a session.
	Embed(f topology.FaultSet) ([]int, *topology.EmbedInfo, error)
	// Patch attempts to absorb the newly added faults (on top of every
	// fault previously passed to Embed/Patch) by local repair.  On
	// Patched or Reordered the returned ring is the candidate
	// replacement; on Noop the ring is unchanged; on Unsupported the
	// caller must re-Embed.
	Patch(add topology.FaultSet) ([]int, Outcome)
	// Unpatch attempts to absorb a batch of healed components — faults
	// leaving the cumulative set — by local repair, growing the ring
	// back toward the fault-free embedding.  On Readmitted the returned
	// ring is the candidate replacement; on Noop the ring is unchanged
	// (the heal was pure bookkeeping); on Unsupported the caller must
	// re-Embed with the reduced fault set.
	Unpatch(remove topology.FaultSet) ([]int, Outcome)
	// Snapshot serializes the incremental state needed to resume
	// patching after a restart (the session persists ring and faults
	// itself).  A nil snapshot is valid: Restore(nil, …) rebuilds only
	// what (ring, faults) alone support — the chain patcher can still
	// splice via its lazily resynced bypass tier, while structural
	// surgery declines until the next Embed.
	Snapshot() ([]byte, error)
	// Restore reinstates a snapshot taken at the given ring and
	// cumulative fault set.
	Restore(state []byte, ring []int, f topology.FaultSet) error
}

// For returns the patcher suited to net: the FFC-structural/splice
// repair chain for De Bruijn networks, the generic splice patcher alone
// otherwise.
func For(net topology.RingEmbedder) Patcher {
	if db, ok := net.(*topology.DeBruijn); ok {
		return newChainPatcher(db)
	}
	return &genericPatcher{net: net}
}

// genericPatcher repairs rings on any unit-dilation topology by cutting
// out the faulted components and re-splicing the surviving arcs.  Bypass
// paths run through off-ring survivors only, so it shines once faults
// have already shrunk the ring below the network size and degrades to
// Unsupported (→ full re-embed) on a fresh Hamiltonian ring whose cut
// ends are not directly linked.
type genericPatcher struct {
	net    topology.RingEmbedder
	valid  bool
	ring   []int
	faults topology.FaultSet

	// touched counts the splice operations of the most recent
	// Patch/Unpatch (arcs reconnected, processors re-inserted); trace
	// holds that call's TierStep for LastTrace.
	touched int
	trace   []TierStep

	// Pooled dense scratch, reused across every Patch/Unpatch/bypass so
	// a steady-state splice event allocates only the ring copy it hands
	// back.  All sets are epoch-stamped (O(1) reset, internal/dense).
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

// LastTrace implements Tracer for the standalone splice patcher.
func (p *genericPatcher) LastTrace() []TierStep { return p.trace }

// traceCall records the single splice-tier step of one Patch/Unpatch.
func (p *genericPatcher) traceCall(o Outcome, start time.Time) {
	p.trace = append(p.trace[:0], TierStep{
		Tier:    "splice",
		Outcome: o,
		Touched: p.touched,
		Elapsed: time.Since(start), //ringlint:allow time trace-only timing; Elapsed is diagnostic, never replayed or hashed
	})
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
// stays invalid and every Patch reports Unsupported.
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
// v must be in [0, Nodes()) and the patcher valid — the chain patcher
// range-checks every batch before either tier sees it.
func (p *genericPatcher) onRingHas(v int) bool {
	p.ensureOnRing()
	return p.onRing.Has(v)
}

// genericState persists the one bit of incremental state the session's
// (ring, faults) pair cannot reconstruct: whether the embedding was
// splicable (dilation ≤ 1).  Before this was persisted, Restore trusted
// node distinctness alone, and a restored dilation-2 closed walk with
// coincidentally distinct nodes would have been spliced illegally.
type genericState struct {
	Splicable bool `json:"splicable"`
}

func (p *genericPatcher) Snapshot() ([]byte, error) {
	return json.Marshal(genericState{Splicable: p.valid})
}

func (p *genericPatcher) Restore(state []byte, ring []int, f topology.FaultSet) error {
	dilation := 1
	if len(state) > 0 {
		var st genericState
		if err := json.Unmarshal(state, &st); err != nil {
			return fmt.Errorf("repair: bad splice snapshot: %w", err)
		}
		if !st.Splicable {
			// The snapshot records an unsplicable embedding (a dilation-2
			// closed walk): stay invalid even when the walk's nodes happen
			// to be distinct.
			dilation = 2
		}
	}
	// Journals from before the splicability bit carry no snapshot; for
	// them (state == nil) the distinct-node check below is the only
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
	return nil
}

func (p *genericPatcher) Patch(add topology.FaultSet) ([]int, Outcome) {
	start := time.Now() //ringlint:allow time trace-only timing
	p.touched = 0
	r, o := p.patch(add)
	p.traceCall(o, start)
	return r, o
}

func (p *genericPatcher) patch(add topology.FaultSet) ([]int, Outcome) {
	if !p.valid || len(p.ring) == 0 {
		return nil, Unsupported
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
		return nil, Noop
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
		return nil, Unsupported
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
		path, ok := p.bypass(seg[len(seg)-1], p.segFlat[nlo], badNode, edgeCut, &p.used)
		if !ok {
			p.valid = false
			return nil, Unsupported
		}
		p.touched++
		for _, x := range path {
			p.used.Add(x)
		}
		newRing = append(newRing, path...)
	}
	p.ringNext = p.ring
	p.ring = newRing
	// used now holds exactly the new ring's membership (arcs + committed
	// interiors): swap it in as the incremental onRing state for free.
	p.used, p.onRing = p.onRing, p.used
	p.onRingOK = true
	p.faults = combined
	return append([]int(nil), newRing...), Patched
}

// closeSeg ends the currently open arc, if any, at len(segFlat).
//
//ringlint:noalloc
func (p *genericPatcher) closeSeg() {
	if n := len(p.segFlat); n > 0 && (len(p.segEnds) == 0 || p.segEnds[len(p.segEnds)-1] < n) {
		p.segEnds = append(p.segEnds, n) //ringlint:allow alloc pooled segment index; growth amortizes to zero
	}
}

// Unpatch absorbs healed components.  Healed links are pure
// bookkeeping (the ring never traverses a faulty wire, so nothing needs
// rerouting — but dropping them from the fault set lets later bypasses
// use the restored wire again).  Each healed processor is re-inserted
// between a pair of adjacent ring neighbors: directly when it links
// both — reversing the cut-and-bypass of the original fault — or, the
// multi-hop heal, via a bounded-BFS bypass path through off-ring
// fault-free survivors on one side, which pulls those survivors back
// onto the ring with it.  A healed node with no insertion slot at all
// stays off-ring (the ring remains valid; a later Embed re-balances),
// so Unpatch never reports Unsupported for slotless heals alone.
func (p *genericPatcher) Unpatch(remove topology.FaultSet) ([]int, Outcome) {
	start := time.Now() //ringlint:allow time trace-only timing
	p.touched = 0
	r, o := p.unpatch(remove)
	p.traceCall(o, start)
	return r, o
}

func (p *genericPatcher) unpatch(remove topology.FaultSet) ([]int, Outcome) {
	if !p.valid || len(p.ring) == 0 {
		return nil, Unsupported
	}
	remove = remove.Canonical()
	reduced := p.faults.Minus(remove)
	healed := p.faults.Minus(reduced) // the part of remove actually present
	p.faults = reduced
	if len(healed.Nodes) == 0 {
		return nil, Noop
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

	n := p.net.Nodes()
	changed := false
	for _, v := range healed.Nodes {
		if v < 0 || v >= n || p.onRing.Has(v) {
			// Out-of-range heals can never join a ring (defensive: the
			// standalone patcher accepts unvalidated batches); on-ring
			// heals are defensive too — a faulty node is never on the ring.
			continue
		}
		if p.insertHealed(v, badNode, edgeCut) {
			changed = true
			p.touched++
		}
	}
	if !changed {
		return nil, Noop
	}
	return append([]int(nil), p.ring...), Readmitted
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

// insertAfter splices seq into the ring after position i, registering
// the new members in the incremental onRing set (which thereby stays
// valid across consecutive heal events).
//
//ringlint:noalloc
func (p *genericPatcher) insertAfter(i int, seq []int) {
	old := len(p.ring)
	p.ring = append(p.ring, seq...) //ringlint:allow alloc pooled ring buffer; bounded by node count
	copy(p.ring[i+1+len(seq):], p.ring[i+1:old])
	copy(p.ring[i+1:i+1+len(seq)], seq)
	for _, x := range seq {
		p.onRing.Add(x)
	}
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
