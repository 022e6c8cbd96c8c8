package repair

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"debruijnring/internal/debruijn"
	"debruijnring/internal/dense"
	"debruijnring/internal/ffc"
	"debruijnring/topology"
)

// ffcPatcher repairs De Bruijn rings structurally, on the FFC
// algorithm's own representation (Rowley–Bose §2.2): the ring is not a
// node list but a successor rule — follow the left rotation unless a
// star override redirects you — generated by a spanning tree T of the
// surviving necklace graph whose same-label edge classes T_w are
// height-one stars.  Proposition 2.1 guarantees that ANY such tree
// yields a single cycle through every surviving necklace, so removing a
// newly faulty necklace reduces to tree surgery:
//
//  1. detach it from the star it hangs in and re-close that w-cycle
//     without it;
//  2. for every star it centres, re-parent the orphaned child
//     necklaces along any other shared window w′ whose owning necklace
//     is still connected to the root, re-closing only the touched
//     stars;
//  3. read the repaired ring off the successor rule.
//
// Each repair costs O(touched stars · n) instead of the O(dⁿ) full
// re-embed, and removes exactly the faulty necklace (≤ n nodes), so the
// paper's dⁿ − nf length bound survives every local patch.
//
// The surgery is bidirectional.  unpatch re-admits a repaired necklace
// by reversing the removal — reattach it along any surviving window,
// re-close only the touched star — growing the ring back toward dⁿ.
// And a faulted ring LINK between healthy endpoints no longer forces a
// re-embed: Proposition 2.1 holds for any member order that closes each
// w-cycle in a single cycle, so the patcher reorders the touched star's
// window choices (or re-hangs the touched necklace onto the star whose
// label lets it detour) until no override or rotation hop crosses a
// faulty wire.
//
// The tier's state is the tree and its overrides, nothing else.  The
// tree is two tables: every member of a star T_w owns one of the d nodes
// αw, so the label each necklace hangs by and the centre of each star
// determine every star's members, and a necklace's own stars lie among
// its ≤ n windows.  The faults are the Patcher's: each call reads its
// canonical fault sets, and a necklace is faulty exactly when it is off
// the tree and not the root's.
//
// Both tables are overlays on the graph's fault-free tree (ffc.Base),
// which every patcher and embedder on the graph shares, and the Step-3
// overrides follow from the tree.  An embed differs from the base only
// where the faulty necklaces reach (ffc.EmbedDiff), and each local
// repair changes only the links it touches, so a patcher holds
// O(touched) state beside its ring, and a snapshot lists only the links
// that differ from the base.
type ffcPatcher struct {
	t *topology.DeBruijn
	g *debruijn.Graph
	// base and reps (the graph's necklace representatives) are shared per
	// graph and fetched on the first Embed or Restore that reaches the
	// FFC kernel, so a graph past its reach allocates nothing dⁿ-sized.
	base   ffc.Base
	reps   []int32
	labels int // dⁿ⁻¹, the number of (n−1)-digit labels

	valid bool
	// spanning records that the tree covered every surviving necklace at
	// the last Embed or Restore.  When it did not (the survivor necklace
	// graph was disconnected), local surgery could silently diverge from
	// what a cold re-embed of the same fault set would build — the full
	// algorithm picks the largest component afresh — so patch and unpatch
	// decline and the session re-embeds instead.
	spanning bool
	root     int // distinguished node R; also its necklace representative
	nodes    int // node count of the ring (Σ tree member periods)

	// label holds, for the necklaces whose entry differs from the base's,
	// the label w by which non-root necklace c hangs from its parent, −1
	// off the tree; centre likewise the centre of star T_w, −1 when no
	// tree edge is labelled w.  The parent of c is centre[label[c]].  Read
	// them through labelOf and centreOf.
	label  dense.Sparse
	centre dense.Sparse
	// The Step-3 overrides follow from the tree: each star closes its
	// members into one w-cycle in ascending order, Step 2's own, unless
	// planStar took another order to keep an override off a faulty wire.
	// reordered holds the overrides (out → in) of the stars so closed;
	// succOf derives every other one.
	reordered dense.Sparse

	// avoid is the canonical fault set whose link faults the current
	// call's star plans keep off: one of the Patcher's, never modified.
	avoid topology.FaultSet

	// touched counts star re-closures performed by the most recent
	// patch/unpatch call — the "O(touched stars)" of the structural
	// tier, surfaced in session repair traces.
	touched int

	// The edit log of the current patch/unpatch call, from which emit
	// builds the call's delta.  Every star closure and clearance logs its
	// members' out-nodes once (logEdit: edited marks, edits lists);
	// leave and join collect the members of the necklaces the call
	// drops from or re-admits to the ring.  All pooled across calls.
	edited dense.Sparse
	edits  []int32
	leave  []int
	join   []int
	out    delta
}

func newFFCPatcher(t *topology.DeBruijn) *ffcPatcher {
	g := t.Graph()
	return &ffcPatcher{t: t, g: g, labels: g.Pow(g.N - 1)}
}

// attach fetches the graph's shared base and necklace representatives
// on first use.  The graph must be within the FFC kernel's reach.
func (p *ffcPatcher) attach() {
	if p.reps == nil {
		p.base = ffc.BaseOf(p.g)
		p.reps = p.g.NecklaceReps()
	}
}

// rep returns the necklace representative of node x.
//
//ringlint:noalloc
func (p *ffcPatcher) rep(x int) int { return int(p.reps[x]) }

// labelOf returns the label necklace c hangs by, −1 off the tree.
//
//ringlint:noalloc
func (p *ffcPatcher) labelOf(c int) int32 {
	if w, ok := p.label.Get(c); ok {
		return w
	}
	return p.base.Label(c)
}

// centreOf returns the centre of star T_w, −1 when there is none.
//
//ringlint:noalloc
func (p *ffcPatcher) centreOf(w int) int32 {
	if q, ok := p.centre.Get(w); ok {
		return q
	}
	return p.base.Centre(w)
}

// succOf returns x's successor override, −1 to follow the rotation.
// Unless x's star is reordered, it is the in-node wβ of the member after
// x's necklace in the ascending order of star T_w, w = Suffix(x), when
// that necklace is a member: the star's members own the d nodes αw, and
// its in-nodes are among the d nodes wβ.
//
//ringlint:noalloc
func (p *ffcPatcher) succOf(x int) int32 {
	if y, ok := p.reordered.Get(x); ok {
		return y
	}
	w := p.g.Suffix(x)
	centre := p.centreOf(w)
	if centre < 0 {
		return -1
	}
	m := p.rep(x)
	member, first, next := false, -1, -1 // next: the least member above m
	for a := 0; a < p.g.D; a++ {
		q := p.rep(a*p.labels + w)
		if q != int(centre) && p.labelOf(q) != int32(w) {
			continue
		}
		member = member || q == m
		if first < 0 || q < first {
			first = q
		}
		if q > m && (next < 0 || q < next) {
			next = q
		}
	}
	if !member {
		return -1
	}
	if next < 0 {
		next = first
	}
	for y := w * p.g.D; y < (w+1)*p.g.D; y++ {
		if p.rep(y) == next {
			return int32(y)
		}
	}
	return -1 // defensive: a member lacks the window
}

// setLabel hangs necklace c by label w (−1: off the tree).
func (p *ffcPatcher) setLabel(c int, w int32) { setOverlay(&p.label, c, w, p.base.Label(c)) }

// setCentre makes q the centre of star T_w (−1: no star).
func (p *ffcPatcher) setCentre(w int, q int32) { setOverlay(&p.centre, w, q, p.base.Centre(w)) }

// setOverlay writes v at slot k of an overlay whose base holds base
// there, keeping in it only what differs from the base.
//
//ringlint:noalloc
func setOverlay(m *dense.Sparse, k int, v, base int32) {
	if v == base {
		m.Delete(k)
	} else {
		m.Set(k, v)
	}
}

func (p *ffcPatcher) Embed(f topology.FaultSet) ([]int, *topology.EmbedInfo, error) {
	f = f.Canonical()
	if err := f.Validate(p.t); err != nil {
		// Rejected before any mutation: a bad fault set must not poison
		// a healthy patcher's incremental state.
		return nil, nil, err
	}
	p.valid = false
	if len(f.Nodes) == 0 && len(f.Edges) > 0 {
		// Edge-only fault sets: the FFC structure with star-order
		// absorption keeps the full dⁿ ring AND an incremental
		// representation, so try it first; the §3 Hamiltonian machinery
		// (provable tolerance, but no patcher state) is the fallback.
		if ring, info, err := p.embedStructural(f); err == nil {
			return ring, info, nil
		}
		p.valid = false
		return p.t.EmbedRing(f)
	}
	return p.embedStructural(f)
}

// embedStructural runs the FFC algorithm for the canonical fault set
// f's node faults, installs the tree and overrides, and reroutes the
// ring off any faulty link it traverses by star surgery.
func (p *ffcPatcher) embedStructural(f topology.FaultSet) ([]int, *topology.EmbedInfo, error) {
	p.valid = false
	res, err := ffc.EmbedDiff(p.g, f.Nodes)
	if err != nil {
		return nil, nil, err
	}

	p.attach()
	p.root = res.Root
	p.nodes = res.BStarSize
	p.spanning = res.BStarSize == p.g.Size-res.FaultyNodeCount
	if err := p.install(res.TreeDiff); err != nil {
		return nil, nil, err
	}

	ring := res.Cycle
	if len(f.Edges) > 0 {
		p.avoid = f
		if _, ok := p.absorbTraversed(); !ok {
			return nil, nil, fmt.Errorf(
				"repair: %s: FFC ring around %d node faults traverses a faulty link no star reorder avoids",
				p.t.Name(), len(f.Nodes))
		}
		r, ok := p.walk()
		if !ok || !topology.VerifyRing(p.t, r, f) {
			return nil, nil, fmt.Errorf(
				"repair: %s: star reorder around %d link faults failed verification",
				p.t.Name(), len(f.Edges))
		}
		ring = r
	}
	p.valid = true

	info := &topology.EmbedInfo{
		RingLength: len(ring),
		LowerBound: LowerBound(p.t, f),
		Rounds:     res.Eccentricity,
		Survivors:  res.BStarSize,
		Dilation:   1,
	}
	return ring, info, nil
}

// member reports whether necklace rep is part of the embedded component
// (and hence of the ring).
//
//ringlint:noalloc
func (p *ffcPatcher) member(rep int) bool {
	return rep == p.root || p.labelOf(rep) >= 0
}

// ringSuccessor is the Step-3 rule: the override if one exists, the left
// rotation otherwise.
//
//ringlint:noalloc
func (p *ffcPatcher) ringSuccessor(x int) int {
	if nx := p.succOf(x); nx >= 0 {
		return int(nx)
	}
	return p.g.RotL(x)
}

// resetLog empties the edit log; patch and unpatch start with it.
//
//ringlint:noalloc
func (p *ffcPatcher) resetLog() {
	p.edited.Reset()
	p.edits, p.leave, p.join = p.edits[:0], p.leave[:0], p.join[:0]
}

// logEdit logs x as a node whose successor the current call may have
// changed.
//
//ringlint:noalloc
func (p *ffcPatcher) logEdit(x int) {
	if p.edited.Set(x, 0) {
		p.edits = append(p.edits, int32(x)) //ringlint:allow alloc pooled edit log; growth amortizes to zero
	}
}

// logNecklace appends the members of necklace rep to list, for the
// leave and join logs.
//
//ringlint:noalloc
func (p *ffcPatcher) logNecklace(list []int, rep int) []int {
	for y := rep; ; {
		list = append(list, y) //ringlint:allow alloc pooled edit log; growth amortizes to zero
		if y = p.g.RotL(y); y == rep {
			return list
		}
	}
}

// emit expresses the current call's surgery as a delta against the
// ring before the call: every logged node still on the ring, and every
// joining node, with its new successor.  Logged nodes off the ring are
// leaving (or belong to necklaces that were never on it) and need no
// successor.  The result is pooled: valid until the next call.
//
//ringlint:noalloc
func (p *ffcPatcher) emit() *delta {
	d := &p.out
	for _, x := range p.join {
		if p.edited.Set(x, 0) {
			p.edits = append(p.edits, int32(x)) //ringlint:allow alloc pooled edit log; growth amortizes to zero
		}
	}
	d.Start, d.Length = p.root, p.nodes
	d.Nodes, d.Succ = d.Nodes[:0], d.Succ[:0]
	for _, x32 := range p.edits {
		x := int(x32)
		if !p.member(p.rep(x)) {
			continue
		}
		d.Nodes = append(d.Nodes, x)                //ringlint:allow alloc pooled delta; growth amortizes to zero
		d.Succ = append(d.Succ, p.ringSuccessor(x)) //ringlint:allow alloc pooled delta; growth amortizes to zero
	}
	d.Leave, d.Join = p.leave, p.join
	return d
}

// patch runs the surgery for one fault batch add, where old and next
// are the Patcher's canonical cumulative fault sets before and after it,
// leaving the ring in the successor table and the edit log (see emit).
func (p *ffcPatcher) patch(add, old, next topology.FaultSet) Outcome {
	p.touched = 0
	p.resetLog()
	if !p.valid {
		return Unsupported
	}
	// The owning Patcher has canonicalized the batch and range-checked
	// every coordinate.
	if !p.spanning {
		// The tier declines and keeps its tree.  If the splice tier finds
		// the batch a noop, the faults move on without the tier; once the
		// batch faults a necklace that had no fault, they no longer match
		// the tree (restore derives the faulty necklaces from them), so
		// the tier goes stale.  A heal needs no such check: the chain
		// turns a splice noop that heals a processor into a re-embed
		// (chainOutcome).
		for _, x := range add.Nodes {
			if !p.faultyIn(p.rep(x), old) {
				p.valid = false
			}
		}
		return Unsupported
	}

	// Star plans of the node loop avoid the links that were already
	// faulty; the batch's own links join from the absorption pass on.
	p.avoid = old
	removed := false
	for _, x := range add.Nodes {
		if old.HasNode(x) {
			continue // duplicate fault
		}
		rep := p.rep(x)
		if rep == p.root {
			// Losing the distinguished node's necklace needs a new root
			// and broadcast; fall back to the full algorithm.
			p.valid = false
			return Unsupported
		}
		if p.labelOf(rep) < 0 {
			continue // necklace already removed
		}
		if !p.removeNecklace(rep) {
			p.valid = false
			return Unsupported
		}
		removed = true
	}

	// A link fault the ring does not traverse is absorbed silently; one
	// it does traverse is rerouted by reordering window choices within
	// the touched stars (node removal above can also re-expose an older
	// link fault, which the same pass absorbs).
	p.avoid = next
	reordered, ok := p.absorbTraversed()
	if !ok {
		p.valid = false
		return Unsupported
	}

	switch {
	case removed:
		return Patched
	case reordered:
		return Reordered
	}
	return Noop
}

// unpatch re-admits healed components, where old and next are the
// Patcher's canonical cumulative fault sets before and after the heal
// batch remove: a repaired necklace is re-expanded into the tree
// (reversing removeNecklace via reattach and the star closures) at its
// last healed fault in batch order, and healed link faults leave the
// avoidance set.  The inverse surgery costs O(touched stars · n) like
// patch, and grows the ring back toward dⁿ, so the dⁿ − nf bound holds
// with the REDUCED fault count after every local heal.  Like patch, it
// leaves the ring in the successor table and the edit log.
func (p *ffcPatcher) unpatch(remove, old, next topology.FaultSet) Outcome {
	p.touched = 0
	p.resetLog()
	if !p.valid || !p.spanning {
		return Unsupported
	}
	p.avoid = next
	changed := false
	for _, x := range remove.Nodes {
		if !old.HasNode(x) {
			continue // healing a non-fault is bookkeeping only
		}
		rep := p.rep(x)
		if p.keepsFault(rep, x, old, next) {
			continue // another processor of the necklace is still down
		}
		if rep == p.root {
			// The root's necklace never left by local surgery (root
			// faults force a re-embed), so this state means the root
			// moved; re-synchronize via the full algorithm.
			p.valid = false
			return Unsupported
		}
		if !p.reattach(rep) {
			p.valid = false
			return Unsupported
		}
		p.nodes += p.g.Period(rep)
		p.join = p.logNecklace(p.join, rep)
		changed = true
	}
	// A re-admitted necklace brings its rotation hops back onto the
	// ring; any that cross a still-faulty wire are rerouted in place.
	if _, ok := p.absorbTraversed(); !ok {
		p.valid = false
		return Unsupported
	}
	if !changed {
		return Noop
	}
	return Readmitted
}

// faultyIn reports whether a node of necklace rep is in the canonical
// fault set f.
func (p *ffcPatcher) faultyIn(rep int, f topology.FaultSet) bool {
	for y := rep; ; {
		if f.HasNode(y) {
			return true
		}
		if y = p.g.RotL(y); y == rep {
			return false
		}
	}
}

// keepsFault reports whether necklace rep is still faulty once a heal
// going from old to next has reached its node x: a node of it stays
// faulty, or is healed later in the batch.
func (p *ffcPatcher) keepsFault(rep, x int, old, next topology.FaultSet) bool {
	for y := rep; ; {
		if old.HasNode(y) && (y > x || next.HasNode(y)) {
			return true
		}
		if y = p.g.RotL(y); y == rep {
			return false
		}
	}
}

// removeNecklace performs the tree surgery for one newly faulty necklace
// rep (a non-root member).  It reports false when an orphaned subtree
// cannot be re-parented — the surviving component may have split, which
// only the full algorithm can resolve.
func (p *ffcPatcher) removeNecklace(rep int) bool {
	w := int(p.labelOf(rep))
	p.nodes -= p.g.Period(rep)
	p.leave = p.logNecklace(p.leave, rep)

	// 1. Detach rep from its parent star and re-close the w-cycle.
	members := p.starMembers(w)
	p.clearStar(members, w)
	p.setLabel(rep, -1)
	if members = removeSorted(members, rep); len(members) == 1 {
		p.setCentre(w, -1)
	} else if !p.closeStar(members, w) {
		return false
	}

	// 2. Dissolve every star rep centres, collecting the orphans.
	var orphans []int
	for _, w := range p.windows(rep) {
		if int(p.centreOf(w)) != rep {
			continue
		}
		members := p.starMembers(w)
		p.clearStar(members, w)
		p.setCentre(w, -1)
		for _, c := range members {
			if c != rep {
				p.setLabel(c, -1) // detach now; reattach below
				orphans = append(orphans, c)
			}
		}
	}

	// 3. Re-parent each orphan (with its intact subtree) along another
	// shared window.  Earlier reattachments can serve as parents for
	// later ones; connectivity to the root is checked per candidate.
	slices.Sort(orphans)
	for _, c := range orphans {
		if !p.reattach(c) {
			return false
		}
	}
	return true
}

// reattach hangs the detached necklace c back onto the tree via some
// window w′ of c, preserving the height-one star property: join the
// existing star T_w′ if one exists (its centre becomes c's parent), or
// open a new star centred at any root-connected necklace that carries
// the window.
func (p *ffcPatcher) reattach(c int) bool {
	for _, w := range p.windows(c) {
		if q := int(p.centreOf(w)); q >= 0 {
			if q == c || !p.connectedToRoot(q, c) {
				continue
			}
			members := p.starMembers(w)
			p.clearStar(members, w)
			p.setLabel(c, int32(w))
			return p.closeStar(insertSorted(members, c), w)
		}
		// Candidate centres are the necklaces owning a node with suffix
		// w: the d nodes {αw : α ∈ Z_d}.  A faulty one is off the tree,
		// so not connected to the root.
		for a := 0; a < p.g.D; a++ {
			q := p.rep(a*p.labels + w)
			if q == c || !p.connectedToRoot(q, c) {
				continue
			}
			if !p.closeStar(insertSorted([]int{q}, c), w) {
				continue
			}
			p.setCentre(w, int32(q))
			p.setLabel(c, int32(w))
			return true
		}
	}
	return false
}

// windows returns the distinct (n−1)-digit circular windows of necklace
// rep in ascending order: the labels by which it can join a star, and
// the only ones a star it centres can carry.
func (p *ffcPatcher) windows(rep int) []int {
	ws := make([]int, 0, p.g.N)
	y := rep
	for {
		ws = append(ws, p.g.Suffix(y))
		y = p.g.RotL(y)
		if y == rep {
			break
		}
	}
	slices.Sort(ws)
	return slices.Compact(ws)
}

// connectedToRoot reports whether q's parent chain reaches the root
// without passing through the detached necklace c (which would create a
// cycle: q lies in c's subtree, or in another still-orphaned subtree).
// A chain without a cycle meets each label at most once, which bounds
// the walk.
func (p *ffcPatcher) connectedToRoot(q, c int) bool {
	for steps := 0; steps <= p.labels; steps++ {
		if q == c {
			return false
		}
		if q == p.root {
			return true
		}
		w := p.labelOf(q)
		if w < 0 {
			return false
		}
		q = int(p.centreOf(int(w)))
	}
	return false // defensive: cycle in the tree
}

// starMembers lists the necklaces of star T_w — its centre and the
// necklaces hanging from it by label w — in ascending order, the Step-2
// cycle order.  Every member owns one of the d nodes αw, and each of
// those nodes lies on a different necklace (their digit counts differ),
// so the members are read off those owners.
func (p *ffcPatcher) starMembers(w int) []int {
	members := make([]int, 0, p.g.D)
	centre := int(p.centreOf(w))
	for a := 0; a < p.g.D; a++ {
		q := p.rep(a*p.labels + w)
		if q == centre || int(p.labelOf(q)) == w {
			members = append(members, q)
		}
	}
	slices.Sort(members)
	return members
}

// clearStar readies a star's members for a change of membership or
// order: their out-nodes are logged and lose any reordered override.
func (p *ffcPatcher) clearStar(members []int, w int) {
	for _, m := range members {
		if out := ffc.SuffixNode(p.g, m, w); out >= 0 {
			p.reordered.Delete(out)
			p.logEdit(out)
		}
	}
}

// closeStar writes the overrides of a fresh plan closing members into
// one w-cycle.  The plan is resolved before any write, so a failed
// closure leaves the successor table untouched (reattach retries other
// labels after a failure).
func (p *ffcPatcher) closeStar(members []int, w int) bool {
	pairs, ascending := p.planStar(members, w)
	if pairs == nil {
		return false
	}
	p.setStar(pairs, ascending)
	p.touched++
	return true
}

// setStar adopts a plan closing a star: its out-nodes are logged, and
// its overrides kept when it departs from ascending order (otherwise
// succOf derives them once the tree holds the star's members).
func (p *ffcPatcher) setStar(pairs [][2]int, ascending bool) {
	for _, pr := range pairs {
		if ascending {
			p.reordered.Delete(pr[0])
		} else {
			p.reordered.Set(pr[0], int32(pr[1]))
		}
		p.logEdit(pr[0])
	}
}

// planStar computes the override pairs that close the given star
// members into one w-cycle: each member's outgoing w-node αw points at
// the next member's incoming w-node wβ.  Proposition 2.1 needs only
// that the member order is a single cycle, so the order is chosen to
// keep every override hop off the faulty wires.  Ascending member order
// — the Step-2 canonical choice — is explored first, so fault-free
// stars close exactly as ffc.Embedder does and rings stay bit-identical
// with the batch path; the deterministic backtracking departs from it
// only when a faulty wire forces another order, which ascending
// reports.  Returns nil when a member lacks the window or no
// single-cycle order avoids the faults.
func (p *ffcPatcher) planStar(members []int, w int) (pairs [][2]int, ascending bool) {
	k := len(members)
	if k < 2 {
		return nil, false
	}
	outs := make([]int, k)
	ins := make([]int, k)
	for i, m := range members {
		outs[i] = ffc.SuffixNode(p.g, m, w)
		ins[i] = ffc.PrefixNode(p.g, m, w)
		if outs[i] < 0 || ins[i] < 0 {
			return nil, false
		}
	}
	order := cycleOrder(k, func(i, j int) bool {
		return !p.avoid.HasEdge(outs[i], ins[j])
	})
	if order == nil {
		return nil, false
	}
	pairs = make([][2]int, k)
	ascending = true
	for idx, i := range order {
		pairs[idx] = [2]int{outs[i], ins[order[(idx+1)%k]]}
		ascending = ascending && i == idx
	}
	return pairs, ascending
}

// cycleOrder finds a cyclic order of 0..k-1 whose adjacencies (last
// wrapping to first) are all allowed, fixing 0 first and preferring
// ascending candidates so the result is deterministic and degenerates
// to identity when nothing is forbidden.  Star sizes are bounded by the
// arity d, so the backtracking is tiny in practice.
func cycleOrder(k int, allowed func(i, j int) bool) []int {
	order := make([]int, 1, k)
	used := make([]bool, k)
	used[0] = true
	var dfs func() bool
	dfs = func() bool {
		if len(order) == k {
			return allowed(order[k-1], order[0])
		}
		for j := 1; j < k; j++ {
			if used[j] || !allowed(order[len(order)-1], j) {
				continue
			}
			used[j] = true
			order = append(order, j)
			if dfs() {
				return true
			}
			order = order[:len(order)-1]
			used[j] = false
		}
		return false
	}
	if !dfs() {
		return nil
	}
	return order
}

// absorbTraversed reroutes the ring off every faulty link it currently
// traverses, star by star, until a fixpoint.  The links are visited in
// canonical order, so journal replay retraces the exact surgery.
// Surgery on one star can re-expose an older detoured wire (a re-hung
// necklace loses the override that bypassed it), so the scan repeats,
// bounded by the link fault count — each successful pass permanently
// reroutes at least one wire, and a pass that reroutes nothing
// terminates the loop.
func (p *ffcPatcher) absorbTraversed() (changed, ok bool) {
	for pass := 0; pass <= len(p.avoid.Edges); pass++ {
		again := false
		for _, e := range p.avoid.Edges {
			if !p.member(p.rep(e.From)) || p.ringSuccessor(e.From) != e.To {
				continue
			}
			if !p.absorbEdge(e) {
				return changed, false
			}
			changed, again = true, true
		}
		if !again {
			return changed, true
		}
	}
	return changed, false
}

// absorbEdge reroutes the ring off one traversed faulty link e.  An
// override hop (e.From is the outgoing w-node of a star) is absorbed by
// re-closing that star under a different single-cycle member order.  A
// rotation hop αw → wα needs αw to gain an override, which means its
// necklace must become a member of the star labelled w = Suffix(e.From):
// re-hang the necklace as a child of that star's centre (or of a
// sibling window owner when the star does not exist yet), or pull a
// sibling necklace under it to open the star with itself as centre —
// the only option when the necklace is the root's.
func (p *ffcPatcher) absorbEdge(e topology.Edge) bool {
	w := p.g.Suffix(e.From)
	if next := p.succOf(e.From); next >= 0 {
		if int(next) != e.To || p.centreOf(w) < 0 {
			return false // defensive: the caller checked the ring hop, and overrides belong to stars
		}
		members := p.starMembers(w)
		if pairs, ascending := p.planStar(members, w); pairs != nil {
			p.clearStar(members, w)
			p.setStar(pairs, ascending)
			return true
		}
		// No single-cycle order avoids the wire — for d = 2 every star
		// has exactly two members, so there never is one.  Shrink the
		// star instead: re-hang one of its children along another
		// window, deleting the faulty pair outright.
		for _, c := range members {
			if c != int(p.centreOf(w)) && p.rehangAnywhere(c, w) {
				return true
			}
		}
		return false
	}

	rep := p.rep(e.From)
	if ffc.SuffixNode(p.g, rep, w) != e.From {
		// Another node of the necklace owns this window; an override
		// would attach there, not at e.From.
		return false
	}
	if q := int(p.centreOf(w)); q >= 0 {
		if q == rep {
			return false // defensive: a centre's w-node is overridden
		}
		return p.rehang(rep, w, q)
	}
	// No star labelled w yet: the candidate partners are the other
	// owners of the window, the necklaces of {αw : α ∈ Z_d}.
	for a := 0; a < p.g.D; a++ {
		q := p.rep(a*p.labels + w)
		if q == rep || !p.member(q) {
			continue
		}
		// Hang rep under q, or — when rep cannot move (it is the
		// root's necklace, or q sits in rep's subtree) — pull q under
		// rep so rep centres the new star.
		if p.rehang(rep, w, q) || p.rehang(q, w, rep) {
			return true
		}
	}
	return false
}

// rehangAnywhere moves necklace c onto any window other than except —
// reattach's search, for a necklace currently in the tree.  Candidates
// are explored in the same deterministic order as reattach: join the
// existing star of each window first, then open a new star under a
// tree member owning the window.
func (p *ffcPatcher) rehangAnywhere(c, except int) bool {
	for _, w := range p.windows(c) {
		if w == except {
			continue
		}
		if q := int(p.centreOf(w)); q >= 0 {
			if p.rehang(c, w, q) {
				return true
			}
			continue
		}
		for a := 0; a < p.g.D; a++ {
			q := p.rep(a*p.labels + w)
			if q != c && p.member(q) && p.rehang(c, w, q) {
				return true
			}
		}
	}
	return false
}

// rehang moves necklace c from its current tree edge to a new one
// {parent: centre, label: w}, joining (or opening) the star T_w and
// re-closing both touched stars.  Both closures are planned before any
// state is written, so a false return leaves the patcher untouched and
// the caller can try another candidate.
func (p *ffcPatcher) rehang(c, w, centre int) bool {
	if c == centre || c == p.root {
		return false
	}
	old := int(p.labelOf(c))
	if old < 0 || old == w {
		return false
	}
	if q := p.centreOf(w); q >= 0 && int(q) != centre {
		return false // the height-one property fixes the centre
	}
	if !p.connectedToRoot(centre, c) {
		return false // centre hangs inside c's subtree: would cycle
	}

	// Plan both closures up front.
	oldMembers := p.starMembers(old)
	var planOld [][2]int
	var oldAscending bool
	dissolveOld := len(oldMembers) == 2
	if dissolveOld && int(p.centreOf(old)) == p.root && !p.centresAnother(p.root, old) {
		// The root's necklace has no tree edge of its own: it is glued
		// into the ring only by the stars it centres.  Dissolving its
		// last one would orphan it from every w-cycle.
		return false
	}
	if !dissolveOld {
		planOld, oldAscending = p.planStar(removeSorted(slices.Clone(oldMembers), c), old)
		if planOld == nil {
			return false
		}
	}
	newMembers := []int{centre}
	if p.centreOf(w) >= 0 {
		newMembers = p.starMembers(w)
	}
	planNew, newAscending := p.planStar(insertSorted(slices.Clone(newMembers), c), w)
	if planNew == nil {
		return false
	}

	// Commit.
	p.clearStar(oldMembers, old)
	if dissolveOld {
		p.setCentre(old, -1)
	} else {
		p.setStar(planOld, oldAscending)
	}
	if p.centreOf(w) < 0 {
		p.setCentre(w, int32(centre))
	} else {
		p.clearStar(newMembers, w)
	}
	p.setLabel(c, int32(w))
	p.setStar(planNew, newAscending)
	return true
}

// centresAnother reports whether necklace q centres a star other than
// T_except.  The stars q centres carry windows of q.
func (p *ffcPatcher) centresAnother(q, except int) bool {
	for _, w := range p.windows(q) {
		if w != except && int(p.centreOf(w)) == q {
			return true
		}
	}
	return false
}

// walk reads the ring off the successor rule, verifying it closes at the
// root after exactly the expected number of nodes (which, for a
// functional successor, implies a simple cycle).
func (p *ffcPatcher) walk() ([]int, bool) {
	if p.nodes <= 0 {
		return nil, false
	}
	ring := make([]int, 0, p.nodes)
	x := p.root
	for {
		ring = append(ring, x)
		nx := p.ringSuccessor(x)
		if nx == p.root {
			break
		}
		if len(ring) >= p.nodes {
			return nil, false
		}
		x = nx
	}
	if len(ring) != p.nodes {
		return nil, false
	}
	return ring, true
}

// FFCState is the FFC tier's snapshot: the distinguished node, the
// ring length, the faulty necklaces and the tree with its Step-3
// successor overrides.  The successor rule they define is the ring
// (Proposition 2.1), so a snapshot regenerates its ring.
//
// Since journal v5 the tree and overrides are Diff, edits to the
// graph's fault-free embedding, whose size follows what the faults
// touched; Tree and Overrides, the whole tree and every override, are
// how journal v4 and older wrote them, and restore still reads them.
type FFCState struct {
	Root      int      `json:"root"`
	Nodes     int      `json:"nodes"`
	Faulty    []int    `json:"faulty,omitempty"`
	Tree      [][3]int `json:"tree,omitempty"`      // [child, parent, w]
	Overrides [][2]int `json:"overrides,omitempty"` // [out, in]
	Diff      *FFCDiff `json:"diff,omitempty"`
}

// ffcDiffVersion is the format version FFCDiff carries.
const ffcDiffVersion = 5

// FFCDiff is the FFC tier's tree and overrides as edits to the graph's
// fault-free embedding (ffc.Base).  Tree holds [child, parent, w] for
// every necklace whose tree link differs from the fault-free tree's,
// [child, −1, −1] for one off the tree, ascending by child; a star's
// centre is its children's parent, and a label no child hangs by has no
// star.  Every star closes in ascending member order, Step 2's own,
// except those the tier reordered around a faulty wire: Overrides holds
// [out, in] for each member of those, ascending by out.  V is the
// format version, 5.
type FFCDiff struct {
	V         int      `json:"v"`
	Tree      [][3]int `json:"tree,omitempty"`
	Overrides [][2]int `json:"overrides,omitempty"`
}

// MarshalJSON writes the diff as encoding/json would, one append per
// number, without reflection.
func (d *FFCDiff) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 32+24*len(d.Tree)+16*len(d.Overrides))
	b = append(b, `{"v":`...)
	b = strconv.AppendInt(b, int64(d.V), 10)
	if len(d.Tree) > 0 {
		b = append(b, `,"tree":[`...)
		for i, e := range d.Tree {
			b = appendInts(b, i, e[:])
		}
		b = append(b, ']')
	}
	if len(d.Overrides) > 0 {
		b = append(b, `,"overrides":[`...)
		for i, o := range d.Overrides {
			b = appendInts(b, i, o[:])
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendInts appends the JSON array of vs, after a comma unless it is
// element 0 of its list.
func appendInts(b []byte, i int, vs []int) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	b = append(b, '[')
	for j, v := range vs {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// snapshot returns the tier's state at the canonical cumulative fault
// set f, nil when it is stale.  It reads only the overlays, never the
// dⁿ base, so it costs what the faults touched.
func (p *ffcPatcher) snapshot(f topology.FaultSet) *FFCState {
	if !p.valid {
		return nil
	}
	return &FFCState{Root: p.root, Nodes: p.nodes, Faulty: p.faultyNecklaces(f.Nodes),
		Diff: &FFCDiff{V: ffcDiffVersion, Tree: p.treeDiff(), Overrides: p.reorderedOverrides()}}
}

// treeDiff lists the tree links that differ from the base's.  A link
// changes when its label does (a label overlay entry) or when its
// label's centre does (a centre overlay entry, whose base children are
// read off the base), so only those necklaces are compared.
func (p *ffcPatcher) treeDiff() [][3]int {
	cand := p.label.AppendKeys(nil)
	for _, w := range p.centre.AppendKeys(nil) {
		for r := w * p.g.D; r < (w+1)*p.g.D; r++ {
			if p.base.Label(r) >= 0 {
				cand = append(cand, r)
			}
		}
	}
	slices.Sort(cand)
	var diff [][3]int
	for i, c := range cand {
		if i > 0 && cand[i-1] == c {
			continue
		}
		w, parent := p.link(c)
		bw, bp := p.base.Label(c), int32(-1)
		if bw >= 0 {
			bp = p.base.Centre(int(bw))
		}
		if w != bw || parent != bp {
			diff = append(diff, [3]int{c, int(parent), int(w)})
		}
	}
	return diff
}

// link returns necklace c's label and parent, both −1 off the tree.
func (p *ffcPatcher) link(c int) (w, parent int32) {
	if w = p.labelOf(c); w < 0 {
		return -1, -1
	}
	return w, p.centreOf(int(w))
}

// reorderedOverrides lists the overrides of the stars closed out of
// ascending order.
func (p *ffcPatcher) reorderedOverrides() [][2]int {
	keys := p.reordered.AppendKeys(nil)
	slices.Sort(keys)
	ov := make([][2]int, len(keys))
	for i, x := range keys {
		ov[i] = [2]int{x, int(p.succOf(x))}
	}
	return ov
}

// install makes the tree the base edited by tree, in the form
// ffc.EmbedDiff and FFCDiff give it (see FFCDiff), with every star
// closed in ascending order.  It checks what the form requires — each
// necklace listed once, in ascending order, and one centre per label: a
// re-hung link's parent must be every other child's — leaving the
// tree's shape to audit.
func (p *ffcPatcher) install(tree []ffc.TreeLink) error {
	p.label.Reset()
	p.centre.Reset()
	p.reordered.Reset()
	var touched []int // labels whose members may differ from the base's
	for i, l := range tree {
		if i > 0 && l.Child <= tree[i-1].Child {
			if l.Child == tree[i-1].Child {
				return fmt.Errorf("repair: snapshot tree hangs necklace [%s] twice", p.g.String(int(l.Child)))
			}
			return fmt.Errorf("repair: snapshot tree diff is not in necklace order at [%s]", p.g.String(int(l.Child)))
		}
		p.label.Set(int(l.Child), l.W)
		if w := p.base.Label(int(l.Child)); w >= 0 && w != l.W {
			touched = append(touched, int(w))
		}
		if l.W < 0 {
			continue
		}
		touched = append(touched, int(l.W))
		if q, ok := p.centre.Get(int(l.W)); ok && q != l.Parent {
			return p.twoCentres(int(l.W), q, l.Parent)
		}
		p.centre.Set(int(l.W), l.Parent)
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	for _, w := range touched {
		if err := p.settleCentre(w); err != nil {
			return err
		}
	}
	return nil
}

// settleCentre fixes the centre of a label w that install's tree edits
// touched.  A base child the edits leave in place keeps the base centre,
// which any re-hung link labelled w must then name too; a label that
// kept no base child is centred where its re-hung links say, or has no
// star when it has none.
func (p *ffcPatcher) settleCentre(w int) error {
	q, claimed := p.centre.Get(w)
	for r := w * p.g.D; r < (w+1)*p.g.D; r++ {
		if p.base.Label(r) >= 0 && !p.label.Has(r) {
			if bq := p.base.Centre(w); claimed && q != bq {
				return p.twoCentres(w, bq, q)
			}
			return nil
		}
	}
	if !claimed {
		p.centre.Set(w, -1)
	}
	return nil
}

// twoCentres is restore's error for label w's links naming centres a
// and b.
func (p *ffcPatcher) twoCentres(w int, a, b int32) error {
	return fmt.Errorf("repair: label %d edges have two centres [%s] and [%s]", w, p.g.String(int(a)), p.g.String(int(b)))
}

// reorder installs the overrides of the stars closed out of ascending
// order, as FFCDiff.Overrides lists them: each slot once, ascending.
func (p *ffcPatcher) reorder(ov []ffc.Override) error {
	for i, o := range ov {
		if i > 0 && o.Out <= ov[i-1].Out {
			if o.Out == ov[i-1].Out {
				return fmt.Errorf("repair: snapshot override slot %d repeated", o.Out)
			}
			return fmt.Errorf("repair: snapshot overrides are not in node order at %d", o.Out)
		}
		p.reordered.Set(int(o.Out), o.In)
	}
	return nil
}

// faultyNecklaces returns the representatives of the necklaces holding
// a node of faults, ascending.
func (p *ffcPatcher) faultyNecklaces(faults []int) []int {
	var reps []int
	for _, x := range faults {
		reps = append(reps, p.rep(x))
	}
	slices.Sort(reps)
	return slices.Compact(reps)
}

// restore reinstates st around the canonical cumulative fault set f and
// returns the ring its successor rule walks, which must equal ring
// unless ring is empty.  A nil st leaves the tier stale (it declines
// until the next Embed) and returns ring as it is.  The snapshot is
// input from outside the program: it must name f's faulty necklaces,
// keep every slot and label in range, list each once and give each star
// one centre, and then pass audit.
func (p *ffcPatcher) restore(st *FFCState, ring []int, f topology.FaultSet) ([]int, error) {
	p.valid = false
	if st == nil {
		return ring, nil
	}
	if p.g.Size > ffc.MaxNodes {
		return nil, fmt.Errorf("repair: snapshot holds FFC state for %s, past the FFC kernel's %d nodes", p.t.Name(), ffc.MaxNodes)
	}
	if st.Root < 0 || st.Root >= p.g.Size {
		return nil, fmt.Errorf("repair: snapshot root %d out of range", st.Root)
	}
	if st.Nodes < 1 || st.Nodes > p.g.Size {
		return nil, fmt.Errorf("repair: snapshot node count %d out of range", st.Nodes)
	}
	for _, x := range f.Nodes {
		if x < 0 || x >= p.g.Size {
			return nil, fmt.Errorf("repair: snapshot fault node %d out of range", x)
		}
	}
	p.attach()
	faulty := p.faultyNecklaces(f.Nodes)
	if !slices.Equal(st.Faulty, faulty) {
		return nil, fmt.Errorf("repair: snapshot faulty necklaces %v are not the fault set's %v", st.Faulty, faulty)
	}
	var err error
	if st.Diff != nil {
		err = p.restoreDiff(st)
	} else {
		err = p.restoreWhole(st)
	}
	if err != nil {
		return nil, err
	}
	p.root = st.Root
	p.nodes = st.Nodes
	survivors := p.g.Size
	for _, rep := range faulty {
		survivors -= p.g.Period(rep)
	}
	p.spanning = p.nodes == survivors
	if err := p.audit(faulty); err != nil {
		return nil, err
	}
	got, ok := p.walk()
	if !ok || (len(ring) > 0 && !slices.Equal(got, ring)) {
		return nil, fmt.Errorf("repair: snapshot state does not reproduce the session ring")
	}
	p.valid = true
	return got, nil
}

// restoreDiff range-checks a v5 snapshot's diff and installs it.
func (p *ffcPatcher) restoreDiff(st *FFCState) error {
	d := st.Diff
	if d.V != ffcDiffVersion {
		return fmt.Errorf("repair: snapshot diff has unknown format version %d", d.V)
	}
	if len(st.Tree) > 0 || len(st.Overrides) > 0 {
		return fmt.Errorf("repair: snapshot holds both a diff and a whole tree")
	}
	tree := make([]ffc.TreeLink, len(d.Tree))
	for i, e := range d.Tree {
		c, parent, w := e[0], e[1], e[2]
		off := parent == -1 && w == -1
		if c < 0 || c >= p.g.Size || !off && (parent < 0 || parent >= p.g.Size) {
			return fmt.Errorf("repair: snapshot tree edge %v out of range", e)
		}
		if !off && (w < 0 || w >= p.labels) {
			return fmt.Errorf("repair: snapshot tree edge %v has label out of range", e)
		}
		tree[i] = ffc.TreeLink{Child: int32(c), Parent: int32(parent), W: int32(w)}
	}
	ov := make([]ffc.Override, len(d.Overrides))
	for i, o := range d.Overrides {
		if o[0] < 0 || o[0] >= p.g.Size || o[1] < 0 || o[1] >= p.g.Size {
			return fmt.Errorf("repair: snapshot override %v out of range", o)
		}
		ov[i] = ffc.Override{Out: int32(o[0]), In: int32(o[1])}
	}
	if err := p.install(tree); err != nil {
		return err
	}
	return p.reorder(ov)
}

// restoreWhole installs a snapshot of journal v4 or older, whose tree
// and overrides are whole, as edits to the base.  It holds whole tables
// while it works.
func (p *ffcPatcher) restoreWhole(st *FFCState) error {
	label := filled(p.g.Size)
	centre := filled(p.labels)
	succ := filled(p.g.Size)
	for _, e := range st.Tree {
		c, parent, w := e[0], e[1], e[2]
		if c < 0 || c >= p.g.Size || parent < 0 || parent >= p.g.Size {
			return fmt.Errorf("repair: snapshot tree edge %v out of range", e)
		}
		if w < 0 || w >= p.labels {
			return fmt.Errorf("repair: snapshot tree edge %v has label out of range", e)
		}
		if label[c] >= 0 {
			return fmt.Errorf("repair: snapshot tree hangs necklace [%s] twice", p.g.String(c))
		}
		if q := centre[w]; q >= 0 && int(q) != parent {
			return p.twoCentres(w, q, int32(parent))
		}
		label[c], centre[w] = int32(w), int32(parent)
	}
	for _, o := range st.Overrides {
		if o[0] < 0 || o[0] >= p.g.Size || o[1] < 0 || o[1] >= p.g.Size {
			return fmt.Errorf("repair: snapshot override %v out of range", o)
		}
		succ[o[0]] = int32(o[1])
	}
	var tree []ffc.TreeLink
	for c, w := range label {
		parent := int32(-1)
		if w >= 0 {
			parent = centre[w]
		}
		bw, bp := p.base.Label(c), int32(-1)
		if bw >= 0 {
			bp = p.base.Centre(int(bw))
		}
		if w != bw || parent != bp {
			tree = append(tree, ffc.TreeLink{Child: int32(c), Parent: parent, W: w})
		}
	}
	if err := p.install(tree); err != nil {
		return err
	}
	// The overrides that differ from the tree's ascending closures name
	// the reordered stars, and reorder takes every member of those.
	var ov []ffc.Override
	stars := map[int]bool{}
	for x, y := range succ {
		if y == p.succOf(x) {
			continue
		}
		ov = append(ov, ffc.Override{Out: int32(x), In: y})
		if w := p.g.Suffix(x); !stars[w] {
			stars[w] = true
			for _, m := range p.starMembers(w) {
				out := ffc.SuffixNode(p.g, m, w)
				ov = append(ov, ffc.Override{Out: int32(out), In: succ[out]})
			}
		}
	}
	slices.SortFunc(ov, func(a, b ffc.Override) int { return cmp.Compare(a.Out, b.Out) })
	ov = slices.Compact(ov)
	return p.reorder(ov)
}

// filled returns n slots of −1.
func filled(n int) []int32 {
	t := make([]int32, n)
	for i := range t {
		t[i] = -1
	}
	return t
}

// audit checks that the restored tree and overrides are one FFC
// structure, as patch and unpatch maintain it: the root is a live
// necklace representative, every tree child is a live necklace owning a
// node of its label whose parent chain reaches the root's, the ring
// length is the total period of those necklaces, every star centre owns
// a node of its label and every star T_w closes its members into one
// w-cycle through their w-nodes (αw → wβ), and no override lies outside
// a star.  The ring walk alone cannot tell a tampered tree from a sound
// one whenever the overrides still close; later surgery would.
func (p *ffcPatcher) audit(faulty []int) error {
	bad := func(what string) error { return fmt.Errorf("repair: snapshot %s", what) }
	if p.root != p.rep(p.root) || has(faulty, p.root) {
		return bad("root is not a live necklace representative")
	}
	total := p.g.Period(p.root)
	overrides := 0
	for c := 0; c < p.g.Size; c++ {
		if p.succOf(c) >= 0 {
			overrides++
		}
		w := p.labelOf(c)
		if w < 0 {
			continue
		}
		if c == p.root || c != p.rep(c) || has(faulty, c) ||
			ffc.SuffixNode(p.g, c, int(w)) < 0 || !p.connectedToRoot(c, -1) {
			return bad("tree does not hang live necklaces from the root")
		}
		total += p.g.Period(c)
	}
	if total != p.nodes {
		return bad("node count is not the tree's")
	}
	for w := 0; w < p.labels; w++ {
		centre := p.centreOf(w)
		if centre < 0 {
			continue
		}
		members := p.starMembers(w)
		if !slices.Contains(members, int(centre)) {
			return bad("star centre owns no node of its label")
		}
		cur := members[0]
		for step := 1; step <= len(members); step++ {
			out := ffc.SuffixNode(p.g, cur, w)
			if out < 0 || p.succOf(out) < 0 {
				return bad("star member lacks its override")
			}
			in := int(p.succOf(out))
			cur = p.rep(in)
			if !slices.Contains(members, cur) || ffc.PrefixNode(p.g, cur, w) != in ||
				(cur == members[0]) != (step == len(members)) {
				return bad("star overrides do not close one cycle of its members")
			}
		}
		overrides -= len(members)
	}
	if overrides != 0 {
		return bad("holds overrides outside every star")
	}
	return nil
}

// has reports whether the ascending list s holds v.
func has(s []int, v int) bool {
	_, ok := slices.BinarySearch(s, v)
	return ok
}

// removeSorted deletes v from the sorted slice s (if present).
func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// insertSorted inserts v into the sorted slice s (keeping it sorted).
func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
