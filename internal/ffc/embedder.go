package ffc

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"debruijnring/internal/debruijn"
)

// Embedder runs the FFC algorithm on one graph with reusable dense
// scratch, so repeated embeddings allocate only their Result.  Every
// per-node step is O(1) with no integer division: the faulty-necklace,
// visited and override tests are bit tests, rotations and suffixes
// divide by dⁿ⁻¹ with a multiply and a shift, Step 1.2 scans only B*'s
// BFS segment, and Step 2 reads each star member's w-nodes off its
// tree edge.  The necklace-representative table is the graph's own
// (debruijn.Graph.NecklaceReps), built once and shared by every
// Embedder on that graph.
//
// An Embedder is NOT safe for concurrent use; give each goroutine its
// own (topology.DeBruijn keeps a sync.Pool of them).  The one-shot Embed
// function remains the convenience front-end.
type Embedder struct {
	g *debruijn.Graph
	s survivors

	// Workers bounds the frontier parallelism of the component BFS, whose
	// run from R is the Step 1.1 broadcast: 1 (or negative) keeps the
	// level scan serial, 0 uses GOMAXPROCS, anything else is the worker
	// count.  Output is bit-identical for every setting — workers scan
	// disjoint frontier segments and their candidate buffers are merged
	// in segment order, which reproduces the serial discovery order
	// exactly (the Simulate determinism recipe) — so Workers is purely a
	// latency knob.
	Workers int

	earliest []int32  // necklace rep → its earliest-informed node Y
	repSeen  []uint64 // bit rep: met in B*'s segment; emptied as repList is read off
	repList  []int32  // necklaces of B*, ascending
	ovSet    []uint64 // bit x: Step 3 overrides x's successor; emptied after the walk
	ovTo     []int32  // the overriding successor, valid where ovSet
	stars    []starEdge
	starsTmp []starEdge
	members  []closure

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

// NewEmbedder returns an Embedder for g.  The graph's necklace table is
// built on the first Embedder (or other caller) of g; everything else
// is lazily sized on first use.
func NewEmbedder(g *debruijn.Graph) *Embedder {
	return &Embedder{g: g, s: newSurvivors(g, 0)}
}

// Rep returns the necklace representative of x from the precomputed
// table.
func (e *Embedder) Rep(x int) int { return int(e.s.reps[x]) }

// Embed runs the FFC algorithm for the given faulty nodes, equivalent to
// the package-level Embed but reusing the receiver's scratch arrays.
func (e *Embedder) Embed(faults []int) (*Result, error) {
	g := e.g
	s := &e.s
	d, pivot := g.D, s.div.p // pivot = dⁿ⁻¹, the leading-digit stride
	e.grow()

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

	res.Tree = make([]TreeLink, 0, len(e.repList)-1)
	e.stars = e.stars[:0]
	for _, rep32 := range e.repList {
		rep := int(rep32)
		if rep == root {
			continue
		}
		y := int(e.earliest[rep])
		w := g.Prefix(y) // Y = wα ⇒ label is Y's leading n−1 digits
		// The broadcast parent: Step 1.1's tie-break, the minimal
		// predecessor βw one level closer to R.
		p, dp := -1, s.dist[y]-1
		for q := w; q < g.Size; q += pivot {
			if s.seen[q>>6]&(1<<(q&63)) != 0 && s.dist[q] == dp {
				p = q
				break
			}
		}
		if p < 0 {
			return nil, fmt.Errorf("ffc: earliest node %s of necklace [%s] has no broadcast parent", g.String(y), g.String(rep))
		}
		parentRep := s.reps[p]
		if int(parentRep) == rep {
			return nil, fmt.Errorf("ffc: necklace [%s] would parent itself", g.String(rep))
		}
		res.Tree = append(res.Tree, TreeLink{Child: rep32, Parent: parentRep, W: int32(w)})
		e.stars = append(e.stars, starEdge{w: int32(w), child: rep32, parent: parentRep, y: int32(y), p: int32(p)})
	}

	// Step 2: close each star T_w into a w-cycle ordered by necklace
	// representative; record the successor overrides densely for the walk
	// and as out/in pairs for the Result.  A star of k children closes
	// k+1 members, so the pairs number len(stars) plus the star count.
	//
	// Each member's w-nodes come off the tree edge.  A child hangs from
	// the centre by p = βw → Y = wα, so its in-node is Y and its out-node
	// RotR(Y) = αw; the centre's out-node is p and its in-node RotL(p) =
	// wβ.  They are the only such nodes: rotations αw and α′w of one word
	// share a digit multiset, so α = α′ (and likewise for wβ).  Every edge
	// of a star shares its centre's unique out-node p.
	e.sortStars()
	nOverrides := len(e.stars)
	for i := range e.stars {
		if i == 0 || e.stars[i].w != e.stars[i-1].w {
			nOverrides++
		}
	}
	res.Overrides = make([]Override, 0, nOverrides)
	for i := 0; i < len(e.stars); {
		star := e.stars[i:]
		w := int(star[0].w)
		k := 1
		for k < len(star) && int(star[k].w) == w {
			k++
		}
		star = star[:k]
		// Children are in ascending order; the centre joins at its rank.
		centre := closure{out: star[0].p, in: int32(s.rotL(int(star[0].p)))}
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
			e.ovSet[m.out>>6] |= 1 << (m.out & 63)
			e.ovTo[m.out] = next.in
			res.Overrides = append(res.Overrides, Override{Out: m.out, In: next.in})
		}
		i += k
	}

	// Step 3: read off the cycle from the dense successor rule.
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
			return nil, fmt.Errorf("ffc: successor walk exceeded component size %d without closing", want)
		}
		x = next
	}
	if len(cycle) != want {
		return nil, fmt.Errorf("ffc: walk closed after %d nodes, want %d (cycle not Hamiltonian in B*)", len(cycle), want)
	}
	return cycle, nil
}

// grow sizes the per-node scratch once; later runs reuse it.
func (e *Embedder) grow() {
	if size := e.g.Size; len(e.ovTo) < size {
		words := (size + 63) / 64
		e.earliest = make([]int32, size)
		e.repSeen = make([]uint64, words)
		e.ovSet = make([]uint64, words)
		e.ovTo = make([]int32, size)
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
