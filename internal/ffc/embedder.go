package ffc

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"debruijnring/internal/debruijn"
	"debruijnring/internal/dense"
)

// Embedder runs the FFC algorithm on one graph with reusable dense
// scratch: all per-run bookkeeping (visited stamps, distances, component
// ids, successor overrides) lives in flat epoch-stamped arrays sized by
// g.Size, so repeated embeddings allocate only their Result.  The
// necklace representative of every node is precomputed once, turning the
// alive-necklace test from an O(n) rotation scan into one array load.
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

	earliest dense.Ints // necklace rep → earliest-informed node Y
	repList  []int32    // surviving necklace reps in ascending order
	ov       dense.Ints // Step-3 successor overrides, node → node
	stars    []starEdge
	members  []int

	// parallelFrontier overrides the frontier size at which a level is
	// worth sharding; 0 means defaultParallelFrontier.  Tests lower it
	// to drive the worker pool on small instances.
	parallelFrontier int
}

// starEdge is one tree edge flattened for Step-2 grouping by label.
type starEdge struct{ w, child, parent int32 }

// NewEmbedder returns an Embedder for g.  Construction costs one O(dⁿ)
// pass to tabulate necklace representatives; everything else is lazily
// sized on first use.
func NewEmbedder(g *debruijn.Graph) *Embedder {
	return &Embedder{g: g, s: survivors{g: g, reps: necklaceReps(g)}}
}

// necklaceReps tabulates NecklaceRep for every node in O(dⁿ) total: an
// ascending scan meets each necklace first at its minimal member, which
// is the representative of the whole rotation orbit.
func necklaceReps(g *debruijn.Graph) []int32 {
	reps := make([]int32, g.Size)
	for i := range reps {
		reps[i] = -1
	}
	for x := 0; x < g.Size; x++ {
		if reps[x] >= 0 {
			continue
		}
		y := x
		for {
			reps[y] = int32(x)
			y = g.RotL(y)
			if y == x {
				break
			}
		}
	}
	return reps
}

// Rep returns the necklace representative of x from the precomputed
// table.
func (e *Embedder) Rep(x int) int { return int(e.s.reps[x]) }

// Embed runs the FFC algorithm for the given faulty nodes, equivalent to
// the package-level Embed but reusing the receiver's scratch arrays.
func (e *Embedder) Embed(faults []int) (*Result, error) {
	g := e.g
	s := &e.s
	d := g.D
	pivot := g.Pow(g.N - 1) // leading-digit stride for predecessor arithmetic

	// Step 0: mark faulty necklaces.
	s.faultRep.Reset(g.Size)
	res := &Result{FaultyNecklaces: make([]int, 0, len(faults))}
	for _, f := range faults {
		if f < 0 || f >= g.Size {
			panic(fmt.Sprintf("ffc: fault %d out of range", f))
		}
		rep := int(s.reps[f])
		if s.faultRep.Add(rep) {
			res.FaultyNecklaces = append(res.FaultyNecklaces, rep)
			res.FaultyNodeCount += g.Period(rep)
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
	root := int(s.roots[best])
	want := int(s.sizes[best])
	res.Root = root
	res.BStarSize = want
	res.Eccentricity = int(s.eccs[best])

	// parentOf mirrors the Step 1.1 tie-break: the minimal predecessor
	// one level closer to R.  Computed on demand — only the
	// earliest-informed node of each necklace needs its parent.
	parentOf := func(x int) int {
		dx, ok := s.dist.Get(x)
		if !ok {
			return -1
		}
		pre := x / d
		for a := 0; a < d; a++ {
			p := a*pivot + pre
			if dp, ok := s.dist.Get(p); ok && dp == dx-1 {
				return p
			}
		}
		return -1
	}

	// Step 1.2: the necklace spanning tree T.  An ascending scan over B*
	// meets each necklace first at its representative, so repList comes
	// out sorted; the earliest-informed node Y minimizes (dist, node).
	if int(s.reps[root]) != root {
		return nil, fmt.Errorf("ffc: root %s is not a necklace representative", g.String(root))
	}
	e.earliest.Reset(g.Size)
	e.repList = e.repList[:0]
	for x := 0; x < g.Size; x++ {
		if id, ok := s.comp.Get(x); !ok || id != best {
			continue
		}
		rep := int(s.reps[x])
		y, ok := e.earliest.Get(rep)
		if !ok {
			e.earliest.Set(rep, int32(x))
			e.repList = append(e.repList, int32(rep))
			continue
		}
		if distOrZero(&s.dist, x) < distOrZero(&s.dist, int(y)) {
			e.earliest.Set(rep, int32(x))
		}
	}
	res.Tree = make([]TreeLink, 0, len(e.repList)-1)
	e.stars = e.stars[:0]
	for _, rep32 := range e.repList {
		rep := int(rep32)
		if rep == root {
			continue
		}
		y := int(e.earliest.At(rep))
		p := parentOf(y)
		if p < 0 {
			return nil, fmt.Errorf("ffc: earliest node %s of necklace [%s] has no broadcast parent", g.String(y), g.String(rep))
		}
		w := g.Prefix(y) // Y = wα ⇒ label is Y's leading n−1 digits
		parentRep := int(s.reps[p])
		if parentRep == rep {
			return nil, fmt.Errorf("ffc: necklace [%s] would parent itself", g.String(rep))
		}
		res.Tree = append(res.Tree, TreeLink{Child: rep32, Parent: int32(parentRep), W: int32(w)})
		e.stars = append(e.stars, starEdge{w: int32(w), child: rep32, parent: int32(parentRep)})
	}

	// Step 2: close each star T_w into a w-cycle ordered by necklace
	// representative; record the successor overrides densely for the walk
	// and as out/in pairs for the Result.  A star of k children closes
	// k+1 members, so the pairs number len(stars) plus the star count.
	slices.SortFunc(e.stars, func(a, b starEdge) int {
		if c := cmp.Compare(a.w, b.w); c != 0 {
			return c
		}
		return cmp.Compare(a.child, b.child)
	})
	nOverrides := len(e.stars)
	for i := range e.stars {
		if i == 0 || e.stars[i].w != e.stars[i-1].w {
			nOverrides++
		}
	}
	e.ov.Reset(g.Size)
	res.Overrides = make([]Override, 0, nOverrides)
	for i := 0; i < len(e.stars); {
		j := i
		for j < len(e.stars) && e.stars[j].w == e.stars[i].w {
			j++
		}
		w := int(e.stars[i].w)
		e.members = e.members[:0]
		for k := i; k < j; k++ {
			e.members = append(e.members, int(e.stars[k].child))
		}
		e.members = append(e.members, int(e.stars[i].parent))
		slices.Sort(e.members)
		k := len(e.members)
		for idx, rep := range e.members {
			next := e.members[(idx+1)%k]
			out := suffixNode(g, rep, w)
			in := prefixNode(g, next, w)
			if out < 0 || in < 0 {
				panic(fmt.Sprintf("ffc: star member [%s] lacks a w-node for w=%s (unreachable)",
					g.String(rep), fmt.Sprint(w)))
			}
			e.ov.Set(out, int32(in))
			res.Overrides = append(res.Overrides, Override{Out: int32(out), In: int32(in)})
		}
		i = j
	}

	// Step 3: read off the cycle from the dense successor rule.
	cycle := make([]int, 0, want)
	x := root
	for {
		cycle = append(cycle, x)
		var next int
		if v, ok := e.ov.Get(x); ok {
			next = int(v)
		} else {
			next = g.RotL(x)
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
	res.Cycle = cycle
	return res, nil
}

// distOrZero mirrors the legacy map semantics dist[x] (0 when absent),
// relevant only in unreachable-node corner cases.
func distOrZero(m *dense.Ints, x int) int32 {
	v, _ := m.Get(x)
	return v
}
