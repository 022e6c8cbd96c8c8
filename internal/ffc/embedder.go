package ffc

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"debruijnring/internal/debruijn"
)

// Embedder runs the FFC algorithm on one graph with reusable dense
// scratch, so repeated embeddings allocate only their Result.
//
// A cold embed does not rerun Steps 1.1–3 over all dⁿ nodes.  It
// starts from the graph's fault-free embedding (its base, built once
// per graph and shared by every Embedder on it) and recomputes only
// what the faulty necklaces touch: the nodes whose broadcast depth
// grows, the necklaces whose earliest-informed node moves with them,
// the stars whose edge set changes, and the ring between the nodes
// whose successor changes (see delta.go).  When 0ⁿ is faulty, or its
// component might not be the largest, it runs the full algorithm
// instead: one component BFS per survivor component, whose run from R
// is the Step 1.1 broadcast, then Steps 1.2–3 over B*.  Both produce
// the same Result, bit for bit.
//
// Every per-node step is O(1) with no integer division: the
// faulty-necklace, re-levelled, visited and override tests are bit
// tests, and rotations and suffixes divide by dⁿ⁻¹ with a multiply and
// a shift.  The necklace-representative table is the graph's own
// (debruijn.Graph.NecklaceReps).
//
// An Embedder is NOT safe for concurrent use; give each goroutine its
// own (topology.DeBruijn keeps a sync.Pool of them).  The one-shot Embed
// function remains the convenience front-end.
type Embedder struct {
	g *debruijn.Graph
	s survivors
	b *base // the graph's fault-free base, fetched on the first delta embed

	// Workers bounds the frontier parallelism of the full path's
	// component BFS, whose run from R is the Step 1.1 broadcast: 1 (or
	// negative) keeps the level scan serial, 0 uses GOMAXPROCS, anything
	// else is the worker count.  Output is bit-identical for every
	// setting — workers scan disjoint frontier segments and their
	// candidate buffers are merged in segment order, which reproduces
	// the serial discovery order exactly (the Simulate determinism
	// recipe) — so Workers is purely a latency knob.  The delta path is
	// serial.
	Workers int

	ovSet    []uint64 // bit x: Step 3 overrides x's successor; emptied after the walk
	ovTo     []int32  // the overriding successor, valid where ovSet
	stars    []starEdge
	starsTmp []starEdge
	members  []closure

	// The full path's Step 1.2 scratch, sized on its first run.
	earliest []int32  // necklace rep → its earliest-informed node Y
	repSeen  []uint64 // bit rep: met in B*'s segment; emptied as repList is read off
	repList  []int32  // necklaces of B*, ascending

	// The delta path's scratch (see delta.go).
	moved   []uint64   // bit x: x is alive and deeper than in the base; emptied after each embed
	touched []int32    // representatives of the re-levelled necklaces, ascending
	labels  []int32    // labels of the stars whose edge set changed, ascending
	starBuf []starEdge // one changed star's edges, ascending child order
	newOv   []Override // the changed stars' closures, back to back
	newEnd  []int32    // newOv[newEnd[i-1]:newEnd[i]] closes star labels[i]
	marks   []int32    // base-cycle positions of the nodes whose successor may change

	byD divisor // by d: a node's prefix x/d

	// What relevel found: the number of re-levelled nodes, B*'s size and
	// eccentricity.  delta reports whether the last embed took the
	// delta path.
	relevelled int
	bstar, ecc int
	delta      bool

	// forceFull makes every embed take the full path; tests compare the
	// two paths with it.
	forceFull bool

	// parallelFrontier overrides the frontier size at which a level is
	// worth sharding; 0 means defaultParallelFrontier.  Tests lower it
	// to drive the worker pool on small instances.
	parallelFrontier int
}

// starEdge is one tree edge flattened for Step-2 grouping by label: the
// child necklace's earliest-informed node y = wα and its broadcast
// parent p = βw on the parent necklace.
type starEdge struct{ w, child, parent, y, p int32 }

// closure is one member of a w-cycle: its outgoing node αw and its
// incoming node wβ.
type closure struct{ out, in int32 }

// NewEmbedder returns an Embedder for g, its per-node scratch sized
// once.  A graph of more than 2³¹ nodes gets an Embedder whose Embed
// fails, with nothing dⁿ-sized allocated: the kernels' node codes are
// int32.
func NewEmbedder(g *debruijn.Graph) *Embedder {
	e := &Embedder{g: g}
	if g.Size <= maxNodes {
		words := (g.Size + 63) / 64
		e.s = newSurvivors(g, 0)
		e.ovSet = make([]uint64, words)
		e.ovTo = make([]int32, g.Size)
		e.moved = make([]uint64, words)
		e.byD = newDivisor(g.D)
	}
	return e
}

// Rep returns the necklace representative of x from the precomputed
// table.
func (e *Embedder) Rep(x int) int { return int(e.s.reps[x]) }

// Embed runs the FFC algorithm for the given faulty nodes, equivalent to
// the package-level Embed but reusing the receiver's scratch arrays.
func (e *Embedder) Embed(faults []int) (*Result, error) {
	g := e.g
	s := &e.s
	if s.reps == nil {
		return nil, fmt.Errorf("ffc: B(%d,%d) has more than 2³¹ nodes; the FFC kernel indexes int32 node codes", g.D, g.N)
	}

	// Step 0: mark faulty necklaces.
	s.resetFaults()
	res := &Result{FaultyNecklaces: make([]int, 0, len(faults))}
	for _, f := range faults {
		if f < 0 || f >= g.Size {
			panic(fmt.Sprintf("ffc: fault %d out of range", f))
		}
		rep := int(s.reps[f])
		if period := s.kill(rep); period > 0 {
			res.FaultyNecklaces = append(res.FaultyNecklaces, rep)
			res.FaultyNodeCount += period
		}
	}
	slices.Sort(res.FaultyNecklaces)

	// With 0ⁿ alive and its component B*, derive the Result from the
	// graph's fault-free base; otherwise run the full algorithm.  A 0ⁿ
	// whose successors 1, …, d−1 are all faulty is stranded.
	e.delta = false
	if !e.forceFull && s.alive(0) && !e.stranded() {
		if e.b == nil {
			e.b = baseOf(g)
		}
		if e.delta = e.relevel(res.FaultyNodeCount); e.delta {
			res, err := e.embedDelta(res)
			e.unmark()
			return res, err
		}
	}
	return e.embedFull(res)
}

// embedFull runs Steps 1.1–3 over the whole surviving graph.
func (e *Embedder) embedFull(res *Result) (*Result, error) {
	g := e.g
	s := &e.s
	e.growFull()

	// Step 1.1, fused with component labeling: one BFS per surviving
	// component, each from its minimal node.  The largest component is
	// B*, its root is R, and its BFS segment is exactly the broadcast
	// from R — the same discovery order, distances and eccentricity.
	s.setWorkers(e.Workers, e.parallelFrontier)
	s.label()
	best := s.largest()
	if best < 0 {
		return nil, errors.New("ffc: every necklace is faulty; no component survives")
	}
	bstar := s.comps[best]
	root := int(bstar.root)
	want := int(bstar.size)
	res.Root = root
	res.BStarSize = want
	res.Eccentricity = int(bstar.ecc)

	// Step 1.2: the necklace spanning tree T.  A necklace lies wholly in
	// one component, so B*'s BFS segment holds exactly its necklaces.  In
	// level order it meets each necklace first at a node of minimum
	// depth; a later node replaces it only when smaller and on the same
	// level, so Y minimizes (dist, node).  repList is then read off the
	// rep bitset in ascending order.
	if int(s.reps[root]) != root {
		return nil, fmt.Errorf("ffc: root %s is not a necklace representative", g.String(root))
	}
	for _, x := range s.segment(best) {
		rep := s.reps[x]
		if e.repSeen[rep>>6]&(1<<(rep&63)) == 0 {
			e.repSeen[rep>>6] |= 1 << (rep & 63)
			e.earliest[rep] = x
		} else if y := e.earliest[rep]; x < y && s.dist[x] == s.dist[y] {
			e.earliest[rep] = x
		}
	}
	e.repList = e.repList[:0]
	for i, word := range e.repSeen {
		for ; word != 0; word &= word - 1 {
			e.repList = append(e.repList, int32(i*64+bits.TrailingZeros64(word)))
		}
		e.repSeen[i] = 0
	}

	e.stars = e.stars[:0]
	for _, rep32 := range e.repList {
		rep := int(rep32)
		if rep == root {
			continue
		}
		y := int(e.earliest[rep])
		// The broadcast parent: Step 1.1's tie-break, the minimal
		// predecessor βw one level closer to R.
		p := -1
		for q, dp := g.Prefix(y), s.dist[y]-1; q < g.Size; q += s.div.p {
			if s.seen[q>>6]&(1<<(q&63)) != 0 && s.dist[q] == dp {
				p = q
				break
			}
		}
		if err := e.addEdge(rep, y, p); err != nil {
			return nil, err
		}
	}
	res.Tree = make([]TreeLink, len(e.stars))
	for i, st := range e.stars {
		res.Tree[i] = TreeLink{Child: st.child, Parent: st.parent, W: st.w}
	}

	// Step 2: close each star T_w into a w-cycle ordered by necklace
	// representative.  A star of k children closes k+1 members, so the
	// overrides number len(stars) plus the star count.
	e.sortStars()
	nOverrides := len(e.stars)
	for i := range e.stars {
		if i == 0 || e.stars[i].w != e.stars[i-1].w {
			nOverrides++
		}
	}
	res.Overrides = make([]Override, 0, nOverrides)
	for i := 0; i < len(e.stars); {
		k := 1
		for i+k < len(e.stars) && e.stars[i+k].w == e.stars[i].w {
			k++
		}
		res.Overrides = e.closeStar(e.stars[i:i+k], res.Overrides)
		i += k
	}

	// Step 3: read off the cycle from the dense successor rule.
	for _, o := range res.Overrides {
		e.ovSet[o.Out>>6] |= 1 << (o.Out & 63)
		e.ovTo[o.Out] = o.In
	}
	cycle, err := e.walk(root, want)
	for _, o := range res.Overrides {
		e.ovSet[o.Out>>6] &^= 1 << (o.Out & 63)
	}
	if err != nil {
		return nil, err
	}
	res.Cycle = cycle
	return res, nil
}

// addEdge hangs necklace rep from its broadcast parent p by its
// earliest-informed node y = wα, appending the edge to e.stars.  p < 0
// means y had no broadcast parent.
func (e *Embedder) addEdge(rep, y, p int) error {
	g := e.g
	if p < 0 {
		return fmt.Errorf("ffc: earliest node %s of necklace [%s] has no broadcast parent", g.String(y), g.String(rep))
	}
	parentRep := e.s.reps[p]
	if int(parentRep) == rep {
		return fmt.Errorf("ffc: necklace [%s] would parent itself", g.String(rep))
	}
	w := int32(g.Prefix(y)) // Y = wα ⇒ label is Y's leading n−1 digits
	e.stars = append(e.stars, starEdge{w: w, child: int32(rep), parent: parentRep, y: int32(y), p: int32(p)})
	return nil
}

// closeStar closes one star T_w, its edges in ascending child order,
// into a w-cycle ordered by necklace representative and appends the
// cycle's successor overrides to dst: each member's out-node to the
// next member's in-node.
//
// Each member's w-nodes come off the tree edge.  A child hangs from
// the centre by p = βw → Y = wα, so its in-node is Y and its out-node
// RotR(Y) = αw; the centre's out-node is p and its in-node RotL(p) =
// wβ.  They are the only such nodes: rotations αw and α′w of one word
// share a digit multiset, so α = α′ (and likewise for wβ).  Every edge
// of a star shares its centre's unique out-node p.
func (e *Embedder) closeStar(star []starEdge, dst []Override) []Override {
	d, pivot := e.g.D, e.s.div.p
	w := int(star[0].w)
	// Children are in ascending order; the centre joins at its rank.
	centre := closure{out: star[0].p, in: int32(e.s.rotL(int(star[0].p)))}
	placed := false
	e.members = e.members[:0]
	for _, c := range star {
		if !placed && star[0].parent < c.child {
			e.members = append(e.members, centre)
			placed = true
		}
		alpha := int(c.y) - w*d
		e.members = append(e.members, closure{out: int32(alpha*pivot + w), in: c.y})
	}
	if !placed {
		e.members = append(e.members, centre)
	}
	for j, m := range e.members {
		next := e.members[0]
		if j+1 < len(e.members) {
			next = e.members[j+1]
		}
		dst = append(dst, Override{Out: m.out, In: next.in})
	}
	return dst
}

// walk follows the successor rule from root: the override where Step 2
// set one, else the necklace successor RotL.
func (e *Embedder) walk(root, want int) ([]int, error) {
	d, div := e.g.D, e.s.div
	cycle := make([]int, 0, want)
	for x := root; ; {
		cycle = append(cycle, x)
		var next int
		if e.ovSet[x>>6]&(1<<(x&63)) != 0 {
			next = int(e.ovTo[x])
		} else {
			q, r := div.split(x)
			next = r*d + q
		}
		if next == root {
			break
		}
		if len(cycle) > want {
			return nil, errWalkExceeded(want)
		}
		x = next
	}
	if len(cycle) != want {
		return nil, errWalkClosed(len(cycle), want)
	}
	return cycle, nil
}

func errWalkExceeded(want int) error {
	return fmt.Errorf("ffc: successor walk exceeded component size %d without closing", want)
}

func errWalkClosed(got, want int) error {
	return fmt.Errorf("ffc: walk closed after %d nodes, want %d (cycle not Hamiltonian in B*)", got, want)
}

// growFull sizes the full path's Step 1.2 scratch on its first run;
// later runs reuse it.
func (e *Embedder) growFull() {
	if e.earliest == nil {
		e.earliest = make([]int32, e.g.Size)
		e.repSeen = make([]uint64, (e.g.Size+63)/64)
	}
}

// sortStars orders the stars by label with a stable LSD radix sort, a
// byte of w per pass.  The stars come in ascending child order, so the
// result is in (w, child) order.
func (e *Embedder) sortStars() {
	if cap(e.starsTmp) < len(e.stars) {
		e.starsTmp = make([]starEdge, len(e.stars))
	}
	src, dst := e.stars, e.starsTmp[:len(e.stars)]
	for shift := 0; (e.s.div.p-1)>>shift > 0; shift += 8 {
		var count [257]int
		for _, st := range src {
			count[(st.w>>shift)&0xff+1]++
		}
		for b := 1; b < len(count); b++ {
			count[b] += count[b-1]
		}
		for _, st := range src {
			b := (st.w >> shift) & 0xff
			dst[count[b]] = st
			count[b]++
		}
		src, dst = dst, src
	}
	e.stars, e.starsTmp = src, dst[:cap(dst)]
}
