package repair

import (
	"encoding/json"
	"fmt"
	"sort"

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
//  2. for every star it centered, re-parent the orphaned child
//     necklaces along any other shared window w′ whose owning necklace
//     is still connected to the root, re-closing only the touched
//     stars;
//  3. read the repaired ring off the successor rule.
//
// Each repair costs O(touched stars · n) instead of the O(dⁿ) full
// re-embed, and removes exactly the faulty necklace (≤ n nodes), so the
// paper's dⁿ − nf length bound survives every local patch.
//
// The surgery is bidirectional.  Unpatch re-admits a repaired necklace
// by reversing the removal — reattach it along any surviving window,
// re-close only the touched star — growing the ring back toward dⁿ.
// And a faulted ring LINK between healthy endpoints no longer forces a
// re-embed: Proposition 2.1 holds for any member order that closes each
// w-cycle in a single cycle, so the patcher reorders the touched star's
// window choices (or re-hangs the touched necklace onto the star whose
// label lets it detour) until no override or rotation hop crosses a
// faulty wire.
type ffcPatcher struct {
	t  *topology.DeBruijn
	g  *debruijn.Graph
	em *ffc.Embedder

	valid     bool
	root      int          // distinguished node R; also its necklace representative
	nodes     int          // node count of the ring (Σ surviving member periods)
	survivors int          // nodes in ALL non-faulty necklaces (== nodes when the tree spans every survivor)
	faulty    map[int]bool // faulty necklace representatives
	tree      map[int]ffc.TreeEdge
	stars     map[int]*star // edge label w → star T_w
	// succ holds the Step-3 successor overrides densely, one slot per
	// node: succ[x] ≥ 0 redirects x's ring successor, −1 means "follow
	// the left rotation".  The ring walk reads it once per hop.
	succ []int32

	// Cumulative raw fault components, maintained so Unpatch can tell
	// when a necklace is fully healed and star closures can avoid
	// still-faulty wires.  necklaceFaults keeps the live node-fault
	// count per necklace representative, so full-heal detection is O(1)
	// instead of a rescan of the whole cumulative fault set.
	nodeFaults     map[int]bool
	edgeFaults     map[topology.Edge]bool
	necklaceFaults map[int]int

	// touched counts star re-closures performed by the most recent
	// Patch/Unpatch call — the "O(touched stars)" of the structural
	// tier, surfaced in session repair traces.
	touched int

	// The edit log of the current Patch/Unpatch call, from which delta
	// builds the call's Delta.  Every override write goes through
	// setSucc, which records the node once (edited marks, edits lists);
	// leave and join collect the members of the necklaces the call
	// drops from or re-admits to the ring.  All pooled across calls.
	edited dense.Sparse
	edits  []int32
	leave  []int
	join   []int
	out    Delta
}

// star is one same-label edge class T_w: every tree edge labeled w hangs
// a child necklace from the shared center (the height-one property).
type star struct {
	center   int
	children []int // sorted ascending
}

func newFFCPatcher(t *topology.DeBruijn) *ffcPatcher {
	g := t.Graph()
	return &ffcPatcher{t: t, g: g, em: ffc.NewEmbedder(g)}
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

// embedStructural runs the FFC algorithm for f's node faults, installs
// the patcher's incremental structures, and reroutes the ring off any
// faulty link it traverses by star surgery.
func (p *ffcPatcher) embedStructural(f topology.FaultSet) ([]int, *topology.EmbedInfo, error) {
	p.valid = false
	res, err := p.em.Embed(f.Nodes)
	if err != nil {
		return nil, nil, err
	}

	p.root = res.Root
	p.nodes = res.BStarSize
	p.survivors = p.g.Size - res.FaultyNodeCount
	p.faulty = make(map[int]bool, len(res.FaultyNecklaces))
	for rep := range res.FaultyNecklaces {
		p.faulty[rep] = true
	}
	p.tree = make(map[int]ffc.TreeEdge, len(res.Tree))
	for c, e := range res.Tree {
		p.tree[c] = e
	}
	p.resetSucc()
	//ringlint:allow maporder one table slot per key: the fill is order-insensitive
	for o, i := range res.Overrides {
		p.succ[o] = int32(i)
	}
	p.nodeFaults = make(map[int]bool, len(f.Nodes))
	p.necklaceFaults = make(map[int]int, len(f.Nodes))
	for _, x := range f.Nodes {
		p.nodeFaults[x] = true
		p.necklaceFaults[p.em.Rep(x)]++
	}
	p.edgeFaults = make(map[topology.Edge]bool, len(f.Edges))
	for _, e := range f.Edges {
		p.edgeFaults[e] = true
	}
	if err := p.rebuildStars(); err != nil {
		return nil, nil, err
	}

	ring := res.Cycle
	if len(f.Edges) > 0 {
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
		LowerBound: p.lowerBound(f),
		Rounds:     res.Eccentricity,
		Survivors:  res.BStarSize,
		Dilation:   1,
	}
	return ring, info, nil
}

// lowerBound is the paper's dⁿ − nf guarantee over the deduplicated node
// fault count, clamped at 0 when vacuous (mirrors topology's bound).
func (p *ffcPatcher) lowerBound(f topology.FaultSet) int {
	b := p.g.Size - p.g.N*len(f.Canonical().Nodes)
	if b < 0 {
		return 0
	}
	return b
}

// rebuildStars regroups the tree's edges into their same-label stars,
// verifying the height-one property (all edges labeled w share a
// center).
func (p *ffcPatcher) rebuildStars() error {
	p.stars = make(map[int]*star)
	//ringlint:allow maporder children are sorted below; only the duplicate-center error text (an invariant violation) can vary
	for c, e := range p.tree {
		s, ok := p.stars[e.W]
		if !ok {
			s = &star{center: e.Parent}
			p.stars[e.W] = s
		} else if s.center != e.Parent {
			return fmt.Errorf("repair: label %d edges have two centers [%s] and [%s]",
				e.W, p.g.String(s.center), p.g.String(e.Parent))
		}
		s.children = append(s.children, c)
	}
	//ringlint:allow maporder each star's child list is sorted independently
	for _, s := range p.stars {
		sort.Ints(s.children)
	}
	return nil
}

// member reports whether necklace rep is part of the embedded component
// (and hence of the ring).
func (p *ffcPatcher) member(rep int) bool {
	if p.faulty[rep] {
		return false
	}
	if rep == p.g.NecklaceRep(p.root) {
		return true
	}
	_, ok := p.tree[rep]
	return ok
}

// ringSuccessor is the Step-3 rule: the override if one exists, the left
// rotation otherwise.
func (p *ffcPatcher) ringSuccessor(x int) int {
	if nx := p.succ[x]; nx >= 0 {
		return int(nx)
	}
	return p.g.RotL(x)
}

// resetSucc clears every successor override, allocating the table on
// first use.
func (p *ffcPatcher) resetSucc() {
	if p.succ == nil {
		p.succ = make([]int32, p.g.Size)
	}
	for i := range p.succ {
		p.succ[i] = -1
	}
}

// resetLog empties the edit log; Patch and Unpatch start with it.
//
//ringlint:noalloc
func (p *ffcPatcher) resetLog() {
	p.edited.Reset()
	p.edits, p.leave, p.join = p.edits[:0], p.leave[:0], p.join[:0]
}

// setSucc writes x's successor override (−1 = follow the rotation) and
// logs x as edited.  Every surgery write goes through it; only the
// table's initialization (resetSucc and the Embed/Restore fills) does
// not.
//
//ringlint:noalloc
func (p *ffcPatcher) setSucc(x int, v int32) {
	p.succ[x] = v
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

// delta expresses the current call's surgery as a Delta against the
// ring before the call: every logged node still on the ring, and every
// joining node, with its new successor.  Logged nodes off the ring are
// leaving (or belong to necklaces that were never on it) and need no
// successor.  The result is pooled: valid until the next call.
//
//ringlint:noalloc
func (p *ffcPatcher) delta() *Delta {
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
		if !p.member(p.em.Rep(x)) {
			continue
		}
		d.Nodes = append(d.Nodes, x)                //ringlint:allow alloc pooled delta; growth amortizes to zero
		d.Succ = append(d.Succ, p.ringSuccessor(x)) //ringlint:allow alloc pooled delta; growth amortizes to zero
	}
	d.Leave, d.Join = p.leave, p.join
	return d
}

func (p *ffcPatcher) Patch(add topology.FaultSet) ([]int, Outcome) {
	return p.materialize(p.patch(add))
}

func (p *ffcPatcher) Unpatch(remove topology.FaultSet) ([]int, Outcome) {
	return p.materialize(p.unpatch(remove))
}

// materialize reads the ring off the successor rule after a
// ring-changing outcome: the plain Patch/Unpatch result, and the
// reference the chain's Delta path is tested against.
func (p *ffcPatcher) materialize(o Outcome) ([]int, Outcome) {
	if o == Noop || o == Unsupported {
		return nil, o
	}
	ring, ok := p.walk()
	if !ok {
		p.valid = false
		return nil, Unsupported
	}
	return ring, o
}

// patch runs the surgery for one fault batch, leaving the ring in the
// successor table and the edit log (see delta).
func (p *ffcPatcher) patch(add topology.FaultSet) Outcome {
	p.touched = 0
	p.resetLog()
	if !p.valid || !p.spanning() {
		return Unsupported
	}
	// Out-of-range coordinates reject the whole batch BEFORE any state
	// is mutated, and without invalidating: a healthy patcher fed one
	// bad input used to be poisoned permanently (every later fault
	// re-embedded even though its incremental state was still exact).
	add = add.Canonical()
	for _, x := range add.Nodes {
		if x < 0 || x >= p.g.Size {
			return Unsupported
		}
	}
	for _, e := range add.Edges {
		if e.From < 0 || e.From >= p.g.Size || e.To < 0 || e.To >= p.g.Size {
			return Unsupported
		}
	}

	removed := false
	for _, x := range add.Nodes {
		if p.nodeFaults[x] {
			continue // duplicate fault
		}
		p.nodeFaults[x] = true
		rep := p.em.Rep(x)
		p.necklaceFaults[rep]++
		if p.faulty[rep] {
			continue // necklace already removed
		}
		p.faulty[rep] = true
		p.survivors -= p.g.Period(rep)
		if rep == p.g.NecklaceRep(p.root) {
			// Losing the distinguished node's necklace needs a new root
			// and broadcast; fall back to the full algorithm.
			p.valid = false
			return Unsupported
		}
		if _, ok := p.tree[rep]; !ok {
			continue // outside the embedded component: ring untouched
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
	for _, e := range add.Edges {
		p.edgeFaults[e] = true
	}
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

// spanning reports whether the tree covers every surviving necklace.
// When it does not (the survivor necklace graph was disconnected at the
// last embed), local surgery could silently diverge from what a cold
// re-embed of the same fault set would build — the full algorithm picks
// the largest component afresh — so Patch and Unpatch decline and the
// session re-embeds instead.
func (p *ffcPatcher) spanning() bool { return p.nodes == p.survivors }

// unpatch re-admits healed components: a repaired necklace is
// re-expanded into the tree (reversing removeNecklace via reattach and
// the star closures), and healed link faults are dropped from the
// avoidance set.  The inverse surgery costs O(touched stars · n) like
// Patch, and grows the ring back toward dⁿ, so the dⁿ − nf bound holds
// with the REDUCED fault count after every local heal.  Like patch, it
// leaves the ring in the successor table and the edit log.
func (p *ffcPatcher) unpatch(remove topology.FaultSet) Outcome {
	p.touched = 0
	p.resetLog()
	if !p.valid || !p.spanning() {
		return Unsupported
	}
	remove = remove.Canonical()
	for _, e := range remove.Edges {
		delete(p.edgeFaults, e)
	}
	rootRep := p.g.NecklaceRep(p.root)
	changed := false
	for _, x := range remove.Nodes {
		if x < 0 || x >= p.g.Size || !p.nodeFaults[x] {
			continue // healing a non-fault is bookkeeping only
		}
		delete(p.nodeFaults, x)
		rep := p.em.Rep(x)
		if p.necklaceFaults[rep] <= 1 {
			delete(p.necklaceFaults, rep)
		} else {
			p.necklaceFaults[rep]--
		}
		if !p.faulty[rep] || p.necklaceStillFaulty(rep) {
			continue // another processor of the necklace is still down
		}
		if rep == rootRep {
			// The root's necklace never left by local surgery (root
			// faults force a re-embed), so this state means the root
			// moved; re-synchronize via the full algorithm.
			p.valid = false
			return Unsupported
		}
		delete(p.faulty, rep)
		p.survivors += p.g.Period(rep)
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

// necklaceStillFaulty reports whether any cumulative node fault still
// maps onto the necklace rep.  The per-necklace counter is maintained
// by Embed/Patch/Unpatch/Restore, so a heal costs O(1) here instead of
// rescanning the whole cumulative fault set per healed node (which made
// dense-fault heals O(|faults|·period)).
func (p *ffcPatcher) necklaceStillFaulty(rep int) bool {
	return p.necklaceFaults[rep] > 0
}

// removeNecklace performs the tree surgery for one newly faulty necklace
// rep (a non-root member).  It reports false when an orphaned subtree
// cannot be re-parented — the surviving component may have split, which
// only the full algorithm can resolve.
func (p *ffcPatcher) removeNecklace(rep int) bool {
	e := p.tree[rep]
	delete(p.tree, rep)
	p.nodes -= p.g.Period(rep)
	p.leave = p.logNecklace(p.leave, rep)

	// 1. Detach rep from its parent star and re-close the w-cycle.
	s := p.stars[e.W]
	if s == nil {
		return false
	}
	p.clearStar(s, e.W)
	s.children = removeSorted(s.children, rep)
	if len(s.children) == 0 {
		delete(p.stars, e.W)
	} else if !p.closeStar(s, e.W) {
		return false
	}

	// 2. Dissolve every star rep centered, collecting the orphans.
	var labels []int
	for w, st := range p.stars {
		if st.center == rep {
			labels = append(labels, w)
		}
	}
	sort.Ints(labels)
	var orphans []int
	for _, w := range labels {
		st := p.stars[w]
		p.clearStar(st, w)
		delete(p.stars, w)
		for _, c := range st.children {
			delete(p.tree, c) // detach now; reattach below
			orphans = append(orphans, c)
		}
	}

	// 3. Re-parent each orphan (with its intact subtree) along another
	// shared window.  Earlier reattachments can serve as parents for
	// later ones; connectivity to the root is checked per candidate.
	sort.Ints(orphans)
	for _, c := range orphans {
		if !p.reattach(c) {
			return false
		}
	}
	return true
}

// reattach hangs the detached necklace c back onto the tree via some
// window w′ of c, preserving the height-one star property: join the
// existing star T_w′ if one exists (its center becomes c's parent), or
// open a new star centered at any root-connected necklace that carries
// the window.
func (p *ffcPatcher) reattach(c int) bool {
	for _, w := range p.windows(c) {
		if s, ok := p.stars[w]; ok {
			q := s.center
			if q == c || !p.connectedToRoot(q, c) {
				continue
			}
			p.clearStar(s, w)
			s.children = insertSorted(s.children, c)
			if !p.closeStar(s, w) {
				return false
			}
			p.tree[c] = ffc.TreeEdge{Parent: q, W: w}
			return true
		}
		// Candidate centers are the necklaces owning a node with suffix
		// w: the d nodes {αw : α ∈ Z_d}.
		pivot := p.g.Pow(p.g.N - 1)
		for a := 0; a < p.g.D; a++ {
			q := p.g.NecklaceRep(a*pivot + w)
			if q == c || p.faulty[q] || !p.connectedToRoot(q, c) {
				continue
			}
			s := &star{center: q, children: []int{c}}
			if !p.closeStar(s, w) {
				continue
			}
			p.stars[w] = s
			p.tree[c] = ffc.TreeEdge{Parent: q, W: w}
			return true
		}
	}
	return false
}

// windows returns the distinct (n−1)-digit circular windows of necklace
// rep in ascending order: the labels by which it can join a star.
func (p *ffcPatcher) windows(rep int) []int {
	var ws []int
	y := rep
	for {
		ws = append(ws, p.g.Suffix(y))
		y = p.g.RotL(y)
		if y == rep {
			break
		}
	}
	sort.Ints(ws)
	out := ws[:0]
	for i, w := range ws {
		if i == 0 || w != ws[i-1] {
			out = append(out, w)
		}
	}
	return out
}

// connectedToRoot reports whether q's parent chain reaches the root
// without passing through the detached necklace c (which would create a
// cycle: q lies in c's subtree, or in another still-orphaned subtree).
func (p *ffcPatcher) connectedToRoot(q, c int) bool {
	rootRep := p.g.NecklaceRep(p.root)
	for steps := 0; steps <= len(p.tree)+1; steps++ {
		if q == c {
			return false
		}
		if q == rootRep {
			return true
		}
		e, ok := p.tree[q]
		if !ok {
			return false
		}
		q = e.Parent
	}
	return false // defensive: cycle in the tree
}

// starMembers lists the star's necklaces — children plus center — in
// ascending order, the Step-2 cycle order.
func starMembers(s *star) []int {
	members := make([]int, 0, len(s.children)+1)
	members = append(members, s.children...)
	members = insertSorted(members, s.center)
	return members
}

// clearStar deletes the star's successor overrides (one per member).
func (p *ffcPatcher) clearStar(s *star, w int) {
	for _, m := range starMembers(s) {
		if out := ffc.SuffixNode(p.g, m, w); out >= 0 {
			p.setSucc(out, -1)
		}
	}
}

// closeStar re-derives the star's overrides from a fresh plan.  The
// plan is resolved before any write, so a failed closure leaves the
// successor table untouched (reattach retries other labels after a
// failure).
func (p *ffcPatcher) closeStar(s *star, w int) bool {
	pairs := p.planStar(starMembers(s), w)
	if pairs == nil {
		return false
	}
	for _, pr := range pairs {
		p.setSucc(pr[0], int32(pr[1]))
	}
	p.touched++
	return true
}

// planStar computes the override pairs that close the given star
// members into one w-cycle: each member's outgoing w-node αw points at
// the next member's incoming w-node wβ.  Proposition 2.1 needs only
// that the member order is a single cycle, so the order is chosen to
// keep every override hop off the faulty wires.  Ascending member order
// — the Step-2 canonical choice — is explored first, so fault-free
// stars close exactly as ffc.Embedder does and rings stay bit-identical
// with the batch path; the deterministic backtracking departs from it
// only when a faulty wire forces another order.  Returns nil when a
// member lacks the window or no single-cycle order avoids the faults.
func (p *ffcPatcher) planStar(members []int, w int) [][2]int {
	k := len(members)
	if k < 2 {
		return nil
	}
	outs := make([]int, k)
	ins := make([]int, k)
	for i, m := range members {
		outs[i] = ffc.SuffixNode(p.g, m, w)
		ins[i] = ffc.PrefixNode(p.g, m, w)
		if outs[i] < 0 || ins[i] < 0 {
			return nil
		}
	}
	order := cycleOrder(k, func(i, j int) bool {
		return !p.edgeFaults[topology.Edge{From: outs[i], To: ins[j]}]
	})
	if order == nil {
		return nil
	}
	pairs := make([][2]int, k)
	for idx, i := range order {
		pairs[idx] = [2]int{outs[i], ins[order[(idx+1)%k]]}
	}
	return pairs
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

// sortedEdgeFaults snapshots the cumulative link faults in canonical
// order, so every absorption pass visits them deterministically
// (journal replay must retrace the exact surgery).
func (p *ffcPatcher) sortedEdgeFaults() []topology.Edge {
	edges := make([]topology.Edge, 0, len(p.edgeFaults))
	for e := range p.edgeFaults {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	return edges
}

// absorbTraversed reroutes the ring off every faulty link it currently
// traverses, star by star, until a fixpoint.  Surgery on one star can
// re-expose an older detoured wire (a re-hung necklace loses the
// override that bypassed it), so the scan repeats, bounded by the link
// fault count — each successful pass permanently reroutes at least one
// wire, and a pass that reroutes nothing terminates the loop.
func (p *ffcPatcher) absorbTraversed() (changed, ok bool) {
	if len(p.edgeFaults) == 0 {
		return false, true
	}
	edges := p.sortedEdgeFaults()
	for pass := 0; pass <= len(edges); pass++ {
		again := false
		for _, e := range edges {
			if !p.member(p.g.NecklaceRep(e.From)) || p.ringSuccessor(e.From) != e.To {
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
// necklace must become a member of the star labeled w = Suffix(e.From):
// re-hang the necklace as a child of that star's center (or of a
// sibling window owner when the star does not exist yet), or pull a
// sibling necklace under it to open the star with itself as center —
// the only option when the necklace is the root's.
func (p *ffcPatcher) absorbEdge(e topology.Edge) bool {
	w := p.g.Suffix(e.From)
	if next := p.succ[e.From]; next >= 0 {
		if int(next) != e.To {
			return false // defensive: caller checked the ring hop
		}
		s := p.stars[w]
		if s == nil {
			return false // defensive: overrides always belong to a star
		}
		if pairs := p.planStar(starMembers(s), w); pairs != nil {
			p.clearStar(s, w)
			for _, pr := range pairs {
				p.setSucc(pr[0], int32(pr[1]))
			}
			return true
		}
		// No single-cycle order avoids the wire — for d = 2 every star
		// has exactly two members, so there never is one.  Shrink the
		// star instead: re-hang one of its children along another
		// window, deleting the faulty pair outright.
		for _, c := range append([]int(nil), s.children...) {
			if p.rehangAnywhere(c, w) {
				return true
			}
		}
		return false
	}

	rep := p.em.Rep(e.From)
	if ffc.SuffixNode(p.g, rep, w) != e.From {
		// Another node of the necklace owns this window; an override
		// would attach there, not at e.From.
		return false
	}
	if s, ok := p.stars[w]; ok {
		if s.center == rep {
			return false // defensive: a center's w-node is overridden
		}
		return p.rehang(rep, w, s.center)
	}
	// No star labeled w yet: the candidate partners are the other
	// owners of the window, the necklaces of {αw : α ∈ Z_d}.
	pivot := p.g.Pow(p.g.N - 1)
	for a := 0; a < p.g.D; a++ {
		q := p.g.NecklaceRep(a*pivot + w)
		if q == rep || p.faulty[q] {
			continue
		}
		if _, inTree := p.tree[q]; !inTree && q != p.g.NecklaceRep(p.root) {
			continue
		}
		// Hang rep under q, or — when rep cannot move (it is the
		// root's necklace, or q sits in rep's subtree) — pull q under
		// rep so rep centers the new star.
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
// root-connected owner of the window.
func (p *ffcPatcher) rehangAnywhere(c, except int) bool {
	rootRep := p.g.NecklaceRep(p.root)
	pivot := p.g.Pow(p.g.N - 1)
	for _, w := range p.windows(c) {
		if w == except {
			continue
		}
		if s, ok := p.stars[w]; ok {
			if p.rehang(c, w, s.center) {
				return true
			}
			continue
		}
		for a := 0; a < p.g.D; a++ {
			q := p.g.NecklaceRep(a*pivot + w)
			if q == c || p.faulty[q] {
				continue
			}
			if _, inTree := p.tree[q]; !inTree && q != rootRep {
				continue
			}
			if p.rehang(c, w, q) {
				return true
			}
		}
	}
	return false
}

// rehang moves necklace c from its current tree edge to a new one
// {parent: center, label: w}, joining (or opening) the star T_w and
// re-closing both touched stars.  Both closures are planned before any
// state is written, so a false return leaves the patcher untouched and
// the caller can try another candidate.
func (p *ffcPatcher) rehang(c, w, center int) bool {
	if c == center || c == p.g.NecklaceRep(p.root) {
		return false
	}
	old, ok := p.tree[c]
	if !ok || old.W == w {
		return false
	}
	sNew := p.stars[w]
	if sNew != nil && sNew.center != center {
		return false // the height-one property fixes the center
	}
	if !p.connectedToRoot(center, c) {
		return false // center hangs inside c's subtree: would cycle
	}
	sOld := p.stars[old.W]
	if sOld == nil {
		return false // defensive: tree edges always have a star
	}

	// Plan both closures up front.
	var planOld [][2]int
	dissolveOld := len(sOld.children) == 1
	if dissolveOld && sOld.center == p.g.NecklaceRep(p.root) {
		// The root's necklace has no tree edge of its own: it is glued
		// into the ring only by the stars it centers.  Dissolving its
		// last one would orphan it from every w-cycle.
		centersAnother := false
		for w2, s2 := range p.stars {
			if w2 != old.W && s2.center == sOld.center {
				centersAnother = true
				break
			}
		}
		if !centersAnother {
			return false
		}
	}
	if !dissolveOld {
		oldMembers := starMembers(sOld)
		planOld = p.planStar(removeSorted(append([]int(nil), oldMembers...), c), old.W)
		if planOld == nil {
			return false
		}
	}
	var newMembers []int
	if sNew != nil {
		newMembers = insertSorted(append([]int(nil), starMembers(sNew)...), c)
	} else {
		newMembers = insertSorted([]int{center}, c)
	}
	planNew := p.planStar(newMembers, w)
	if planNew == nil {
		return false
	}

	// Commit.
	p.clearStar(sOld, old.W)
	sOld.children = removeSorted(sOld.children, c)
	if dissolveOld {
		delete(p.stars, old.W)
	} else {
		for _, pr := range planOld {
			p.setSucc(pr[0], int32(pr[1]))
		}
	}
	if sNew == nil {
		sNew = &star{center: center}
		p.stars[w] = sNew
	} else {
		p.clearStar(sNew, w)
	}
	sNew.children = insertSorted(sNew.children, c)
	p.tree[c] = ffc.TreeEdge{Parent: center, W: w}
	for _, pr := range planNew {
		p.setSucc(pr[0], int32(pr[1]))
	}
	return true
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

// ffcState is the JSON form of the patcher's incremental state, persisted
// in session snapshots.
type ffcState struct {
	Root      int      `json:"root"`
	Nodes     int      `json:"nodes"`
	Faulty    []int    `json:"faulty,omitempty"`
	Tree      [][3]int `json:"tree,omitempty"`      // [child, parent, w]
	Overrides [][2]int `json:"overrides,omitempty"` // [out, in]
}

func (p *ffcPatcher) Snapshot() ([]byte, error) {
	if !p.valid {
		return nil, nil
	}
	st := ffcState{Root: p.root, Nodes: p.nodes}
	for rep := range p.faulty {
		st.Faulty = append(st.Faulty, rep)
	}
	sort.Ints(st.Faulty)
	for c, e := range p.tree {
		st.Tree = append(st.Tree, [3]int{c, e.Parent, e.W})
	}
	sort.Slice(st.Tree, func(i, j int) bool { return st.Tree[i][0] < st.Tree[j][0] })
	for o, i := range p.succ {
		if i >= 0 {
			st.Overrides = append(st.Overrides, [2]int{o, int(i)})
		}
	}
	return json.Marshal(st)
}

func (p *ffcPatcher) Restore(state []byte, ring []int, f topology.FaultSet) error {
	p.valid = false
	if len(state) == 0 {
		return nil // ring survives on the session; patches re-embed
	}
	var st ffcState
	if err := json.Unmarshal(state, &st); err != nil {
		return fmt.Errorf("repair: bad snapshot: %w", err)
	}
	if st.Root < 0 || st.Root >= p.g.Size {
		return fmt.Errorf("repair: snapshot root %d out of range", st.Root)
	}
	if st.Nodes < 1 || st.Nodes > p.g.Size {
		return fmt.Errorf("repair: snapshot node count %d out of range", st.Nodes)
	}
	p.root = st.Root
	p.nodes = st.Nodes
	p.survivors = p.g.Size
	p.faulty = make(map[int]bool, len(st.Faulty))
	for _, rep := range st.Faulty {
		if rep < 0 || rep >= p.g.Size {
			return fmt.Errorf("repair: snapshot faulty necklace %d out of range", rep)
		}
		if !p.faulty[rep] {
			p.faulty[rep] = true
			p.survivors -= p.g.Period(rep)
		}
	}
	p.tree = make(map[int]ffc.TreeEdge, len(st.Tree))
	for _, e := range st.Tree {
		if e[0] < 0 || e[0] >= p.g.Size || e[1] < 0 || e[1] >= p.g.Size {
			return fmt.Errorf("repair: snapshot tree edge %v out of range", e)
		}
		p.tree[e[0]] = ffc.TreeEdge{Parent: e[1], W: e[2]}
	}
	p.resetSucc()
	for _, o := range st.Overrides {
		if o[0] < 0 || o[0] >= p.g.Size || o[1] < 0 || o[1] >= p.g.Size {
			return fmt.Errorf("repair: snapshot override %v out of range", o)
		}
		p.succ[o[0]] = int32(o[1])
	}
	f = f.Canonical()
	p.nodeFaults = make(map[int]bool, len(f.Nodes))
	p.necklaceFaults = make(map[int]int, len(f.Nodes))
	for _, x := range f.Nodes {
		if x < 0 || x >= p.g.Size {
			return fmt.Errorf("repair: snapshot fault node %d out of range", x)
		}
		p.nodeFaults[x] = true
		p.necklaceFaults[p.em.Rep(x)]++
	}
	p.edgeFaults = make(map[topology.Edge]bool, len(f.Edges))
	for _, e := range f.Edges {
		p.edgeFaults[e] = true
	}
	if err := p.rebuildStars(); err != nil {
		return err
	}
	got, ok := p.walk()
	if !ok || !equalInts(got, ring) {
		return fmt.Errorf("repair: snapshot state does not reproduce the session ring")
	}
	p.valid = true
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
