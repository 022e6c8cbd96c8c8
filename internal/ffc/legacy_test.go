package ffc

// This file pins the dense-kernel rewrite to the original map-based
// implementations: the pre-rewrite bookkeeping (map[int]int distances,
// map[int]bool visited sets) is preserved here verbatim as a test-only
// reference, and the property tests below assert that the epoch-stamped
// flat-array kernels produce byte-identical results across randomized
// (d, n, f, seed) grids.

import (
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"sort"
	"testing"

	"debruijnring/internal/debruijn"
)

// legacyResult is the pre-rewrite Result, with its map-valued fields.
type legacyResult struct {
	Cycle           []int
	Root            int
	BStarSize       int
	Eccentricity    int
	FaultyNecklaces map[int]bool
	FaultyNodeCount int
	Tree            map[int]TreeEdge
	Overrides       map[int]int
}

// embedLegacy is the pre-rewrite Embed: map-based broadcast, tree
// derivation, override table and successor walk.
func embedLegacy(g *debruijn.Graph, faults []int) (*legacyResult, error) {
	faultyReps := FaultyNecklaces(g, faults)
	alive := func(x int) bool { return !faultyReps[g.NecklaceRep(x)] }

	comp, err := LargestComponent(g, alive)
	if err != nil {
		return nil, err
	}
	root := comp.MinNode

	res := &legacyResult{
		Root:            root,
		BStarSize:       len(comp.Nodes),
		FaultyNecklaces: faultyReps,
	}
	for rep := range faultyReps {
		res.FaultyNodeCount += g.Period(rep)
	}

	dist, parent, ecc := broadcastTreeLegacy(g, root, comp.Member)
	res.Eccentricity = ecc

	tree, err := necklaceTreeLegacy(g, root, comp, dist, parent)
	if err != nil {
		return nil, err
	}
	res.Tree = tree

	res.Overrides = modifiedTreeOverridesLegacy(g, tree)

	cycle, err := walkLegacy(g, root, res.Overrides, len(comp.Nodes))
	if err != nil {
		return nil, err
	}
	res.Cycle = cycle
	return res, nil
}

// Component is a connected component of the surviving subgraph.  Because
// whole necklaces are removed, weak and strong connectivity coincide
// (every inter-necklace edge αw → wβ has a directed return path through the
// two necklaces via βw → wα), so Nodes is exactly the set reachable from
// MinNode along directed edges.
type Component struct {
	Nodes   []int
	MinNode int
	Member  func(int) bool
}

// LargestComponent returns the largest component of the subgraph induced by
// alive nodes, breaking ties toward the component with the smallest node.
func LargestComponent(g *debruijn.Graph, alive func(int) bool) (*Component, error) {
	compID := make([]int, g.Size)
	for i := range compID {
		compID[i] = -1
	}
	var sizes []int
	var minNodes []int
	var stack, buf []int
	for x := 0; x < g.Size; x++ {
		if !alive(x) || compID[x] != -1 {
			continue
		}
		id := len(sizes)
		sizes = append(sizes, 0)
		minNodes = append(minNodes, x)
		stack = append(stack[:0], x)
		compID[x] = id
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			sizes[id]++
			buf = g.Successors(v, buf)
			for _, w := range buf {
				if alive(w) && compID[w] == -1 {
					compID[w] = id
					stack = append(stack, w)
				}
			}
			buf = g.Predecessors(v, buf)
			for _, w := range buf {
				if alive(w) && compID[w] == -1 {
					compID[w] = id
					stack = append(stack, w)
				}
			}
		}
	}
	if len(sizes) == 0 {
		return nil, errors.New("ffc: every necklace is faulty; no component survives")
	}
	best := 0
	for id := 1; id < len(sizes); id++ {
		if sizes[id] > sizes[best] {
			best = id
		}
	}
	nodes := make([]int, 0, sizes[best])
	for x := 0; x < g.Size; x++ {
		if compID[x] == best {
			nodes = append(nodes, x)
		}
	}
	member := func(x int) bool { return x >= 0 && x < g.Size && compID[x] == best }
	return &Component{Nodes: nodes, MinNode: minNodes[best], Member: member}, nil
}

func broadcastTreeLegacy(g *debruijn.Graph, root int, member func(int) bool) (dist map[int]int, parent map[int]int, ecc int) {
	dist = map[int]int{root: 0}
	parent = make(map[int]int)
	frontier := []int{root}
	var buf []int
	for len(frontier) > 0 {
		var next []int
		for _, v := range frontier {
			buf = g.Successors(v, buf)
			for _, w := range buf {
				if w == v || !member(w) {
					continue
				}
				if _, ok := dist[w]; !ok {
					dist[w] = dist[v] + 1
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	for x, dx := range dist {
		if dx > ecc {
			ecc = dx
		}
		if x == root {
			continue
		}
		best := -1
		buf = g.Predecessors(x, buf)
		for _, p := range buf {
			if dp, ok := dist[p]; ok && dp == dx-1 && (best == -1 || p < best) {
				best = p
			}
		}
		if best == -1 {
			panic("ffc: BFS node with no parent (unreachable)")
		}
		parent[x] = best
	}
	return dist, parent, ecc
}

func necklaceTreeLegacy(g *debruijn.Graph, root int, comp *Component, dist, parent map[int]int) (map[int]TreeEdge, error) {
	rootRep := g.NecklaceRep(root)
	if rootRep != root {
		return nil, fmt.Errorf("ffc: root %s is not a necklace representative", g.String(root))
	}
	earliest := make(map[int]int) // rep → Y
	for _, x := range comp.Nodes {
		rep := g.NecklaceRep(x)
		y, ok := earliest[rep]
		if !ok || dist[x] < dist[y] || (dist[x] == dist[y] && x < y) {
			earliest[rep] = x
		}
	}
	tree := make(map[int]TreeEdge, len(earliest)-1)
	for rep, y := range earliest {
		if rep == rootRep {
			continue
		}
		p, ok := parent[y]
		if !ok {
			return nil, fmt.Errorf("ffc: earliest node %s of necklace [%s] has no broadcast parent", g.String(y), g.String(rep))
		}
		w := g.Prefix(y)
		parentRep := g.NecklaceRep(p)
		if parentRep == rep {
			return nil, fmt.Errorf("ffc: necklace [%s] would parent itself", g.String(rep))
		}
		tree[rep] = TreeEdge{Parent: parentRep, W: w}
	}
	return tree, nil
}

func modifiedTreeOverridesLegacy(g *debruijn.Graph, tree map[int]TreeEdge) map[int]int {
	stars := make(map[int][]int)
	parents := make(map[int]int)
	for child, e := range tree {
		stars[e.W] = append(stars[e.W], child)
		parents[e.W] = e.Parent
	}
	overrides := make(map[int]int)
	for w, members := range stars {
		members = append(members, parents[w])
		sort.Ints(members)
		k := len(members)
		for i, rep := range members {
			next := members[(i+1)%k]
			out := SuffixNode(g, rep, w)
			in := PrefixNode(g, next, w)
			if out < 0 || in < 0 {
				panic("ffc: star member lacks a w-node (unreachable)")
			}
			overrides[out] = in
		}
	}
	return overrides
}

func walkLegacy(g *debruijn.Graph, root int, overrides map[int]int, want int) ([]int, error) {
	cycle := make([]int, 0, want)
	x := root
	for {
		cycle = append(cycle, x)
		next, ok := overrides[x]
		if !ok {
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
	return cycle, nil
}

// oneTrialLegacy is the pre-rewrite trial kernel: map-based fault sets,
// component labeling and BFS bookkeeping, identical RNG consumption.
func oneTrialLegacy(g *debruijn.Graph, r, f int, rng *rand.Rand) (size, ecc, dead int) {
	faults := make(map[int]bool, f)
	for len(faults) < f {
		faults[rng.IntN(g.Size)] = true
	}
	faultyReps := make(map[int]bool, f)
	for x := range faults {
		faultyReps[g.NecklaceRep(x)] = true
	}
	alive := func(x int) bool { return !faultyReps[g.NecklaceRep(x)] }
	for rep := range faultyReps {
		dead += g.Period(rep)
	}

	compID := make([]int, g.Size)
	for i := range compID {
		compID[i] = -1
	}
	var compSizes []int
	var queue, buf []int
	for x := 0; x < g.Size; x++ {
		if !alive(x) || compID[x] != -1 {
			continue
		}
		id := len(compSizes)
		compSizes = append(compSizes, 0)
		compID[x] = id
		queue = append(queue[:0], x)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			compSizes[id]++
			buf = g.Successors(v, buf)
			for _, w := range buf {
				if alive(w) && compID[w] == -1 {
					compID[w] = id
					queue = append(queue, w)
				}
			}
			buf = g.Predecessors(v, buf)
			for _, w := range buf {
				if alive(w) && compID[w] == -1 {
					compID[w] = id
					queue = append(queue, w)
				}
			}
		}
	}
	if len(compSizes) == 0 {
		return 0, 0, dead
	}

	src := r
	if !alive(src) {
		largest := 0
		for id, s := range compSizes {
			if s > compSizes[largest] {
				largest = id
			}
		}
		src = nearestInComponentLegacy(g, r, largest, compID)
		if src < 0 {
			return 0, 0, dead
		}
	}

	id := compID[src]
	dist := map[int]int{src: 0}
	frontier := []int{src}
	depth := 0
	for len(frontier) > 0 {
		var next []int
		for _, v := range frontier {
			buf = g.Successors(v, buf)
			for _, w := range buf {
				if w == v || compID[w] != id {
					continue
				}
				if _, ok := dist[w]; !ok {
					dist[w] = dist[v] + 1
					next = append(next, w)
				}
			}
		}
		if len(next) > 0 {
			depth++
		}
		frontier = next
	}
	return compSizes[id], depth, dead
}

func nearestInComponentLegacy(g *debruijn.Graph, r, id int, compID []int) int {
	seen := map[int]bool{r: true}
	frontier := []int{r}
	var buf []int
	consider := func(w, best int) int {
		if compID[w] == id && (best == -1 || w < best) {
			return w
		}
		return best
	}
	if compID[r] == id {
		return r
	}
	for len(frontier) > 0 {
		var next []int
		best := -1
		for _, v := range frontier {
			buf = g.Successors(v, buf)
			for _, w := range buf {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
					best = consider(w, best)
				}
			}
			buf = g.Predecessors(v, buf)
			for _, w := range buf {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
					best = consider(w, best)
				}
			}
		}
		if best >= 0 {
			return best
		}
		frontier = next
	}
	return -1
}

// simulateLegacy drives the map-based trial kernel through the same
// deterministic per-trial stream scheme as SimulateWorkers, sequentially.
func simulateLegacy(d, n int, faultCounts []int, trials int, seed uint64) []SimRow {
	g := debruijn.New(d, n)
	r := g.Successor(g.Repeat(0), 1)
	pcg := rand.NewPCG(0, 0)
	rng := rand.New(pcg)
	rows := make([]SimRow, 0, len(faultCounts))
	for _, f := range faultCounts {
		row := SimRow{F: f, MinSize: g.Size + 1, MinEcc: g.Size + 1, Bound: UpperBound(g, f)}
		var sumSize, sumEcc, sumDead int64
		for trial := 0; trial < trials; trial++ {
			pcg.Seed(seed, trialStream(f, trial))
			size, ecc, dead := oneTrialLegacy(g, r, f, rng)
			sumSize += int64(size)
			sumEcc += int64(ecc)
			sumDead += int64(dead)
			if size > row.MaxSize {
				row.MaxSize = size
			}
			if size < row.MinSize {
				row.MinSize = size
			}
			if ecc > row.MaxEcc {
				row.MaxEcc = ecc
			}
			if ecc < row.MinEcc {
				row.MinEcc = ecc
			}
		}
		row.AvgSize = float64(sumSize) / float64(trials)
		row.AvgEcc = float64(sumEcc) / float64(trials)
		row.AvgDeadNodes = float64(sumDead) / float64(trials)
		rows = append(rows, row)
	}
	return rows
}

// equalResults compares every field of a legacy and a dense embedding,
// converting the dense slices to the legacy maps.  The dense slices must
// also be canonical: FaultyNecklaces and Tree ascending without repeats,
// and Overrides naming each outgoing node once.
func equalResults(a *legacyResult, b *Result) bool {
	if a.Root != b.Root || a.BStarSize != b.BStarSize || a.Eccentricity != b.Eccentricity ||
		a.FaultyNodeCount != b.FaultyNodeCount {
		return false
	}
	if len(a.Cycle) != len(b.Cycle) {
		return false
	}
	for i := range a.Cycle {
		if a.Cycle[i] != b.Cycle[i] {
			return false
		}
	}
	faulty := make(map[int]bool, len(b.FaultyNecklaces))
	for i, rep := range b.FaultyNecklaces {
		if i > 0 && rep <= b.FaultyNecklaces[i-1] {
			return false
		}
		faulty[rep] = true
	}
	tree := make(map[int]TreeEdge, len(b.Tree))
	for i, l := range b.Tree {
		if i > 0 && l.Child <= b.Tree[i-1].Child {
			return false
		}
		tree[int(l.Child)] = TreeEdge{Parent: int(l.Parent), W: int(l.W)}
	}
	overrides := make(map[int]int, len(b.Overrides))
	for _, o := range b.Overrides {
		overrides[int(o.Out)] = int(o.In)
	}
	if len(overrides) != len(b.Overrides) {
		return false
	}
	return maps.Equal(a.FaultyNecklaces, faulty) && maps.Equal(a.Tree, tree) &&
		maps.Equal(a.Overrides, overrides)
}

// TestDenseEmbedMatchesLegacy sweeps randomized (d, n, f, seed) grids and
// asserts the dense Embedder reproduces the legacy map implementation
// field for field, including the reuse of one Embedder across runs.  The
// sweep ends with manyFaultSets, where the fused labeling/broadcast BFS
// meets several components per embed; it counts the sets whose largest
// component is not the first one discovered — the broadcast segment is
// not the first of the visit order — and requires some.
func TestDenseEmbedMatchesLegacy(t *testing.T) {
	var cases []faultCase
	grids := []struct{ d, n int }{
		{2, 1}, {3, 1}, {5, 1}, // dⁿ⁻¹ = 1: every label is the empty word
		{2, 6}, {2, 8}, {2, 12}, {3, 4}, {3, 6}, {4, 3}, {4, 5}, {5, 2},
	}
	for _, gr := range grids {
		g := debruijn.New(gr.d, gr.n)
		for f := 0; f <= 4; f++ {
			for seed := int64(0); seed < 6; seed++ {
				rng := newTestRNG(seed*1000 + int64(f))
				faults := make([]int, f)
				for i := range faults {
					faults[i] = rng.IntN(g.Size)
				}
				cases = append(cases, faultCase{g, faults})
			}
		}
	}
	cases = append(cases, manyFaultSets()...)

	ems := map[*debruijn.Graph]*Embedder{} // one reused across every case on a graph
	notFirst := 0
	for _, c := range cases {
		g, faults := c.g, c.faults
		em := ems[g]
		if em == nil {
			em = NewEmbedder(g)
			ems[g] = em
		}
		want, wantErr := embedLegacy(g, faults)
		got, gotErr := em.Embed(faults)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("B(%d,%d) faults %v: legacy err %v, dense err %v",
				g.D, g.N, faults, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("B(%d,%d) faults %v: error mismatch %q vs %q",
					g.D, g.N, faults, wantErr, gotErr)
			}
			continue
		}
		if !equalResults(want, got) {
			t.Fatalf("B(%d,%d) faults %v: dense result diverges\nlegacy: %+v\ndense:  %+v",
				g.D, g.N, faults, want, got)
		}
		if !em.delta && em.s.largest() != 0 { // B* without 0ⁿ: only the full path labels components
			notFirst++
		}
	}
	if notFirst == 0 {
		t.Fatal("no fault set put B* after another component")
	}
}

// TestEmbedBStarSegmentNotFirst pins Step 1.2's scan to B*'s own BFS
// segment when that segment does not start at order[0]: faulting the
// necklace of 0…01 strands 0ⁿ as component 0 (for d = 3 the necklace of
// 0…02 must go too), so B* is component 1 and starts at order[1].
func TestEmbedBStarSegmentNotFirst(t *testing.T) {
	for _, c := range []faultCase{
		{debruijn.New(2, 8), []int{1}},
		{debruijn.New(2, 10), []int{2, 333}},
		{debruijn.New(3, 4), []int{1, 2}},
	} {
		em := NewEmbedder(c.g)
		got, err := em.Embed(c.faults)
		if err != nil {
			t.Fatal(err)
		}
		best := em.s.largest()
		if best != 1 || em.s.comps[best].start != 1 || em.s.comps[0].root != 0 {
			t.Fatalf("B(%d,%d) faults %v: B* is component %d starting at order[%d], want component 1 at order[1] after the stranded 0ⁿ",
				c.g.D, c.g.N, c.faults, best, em.s.comps[best].start)
		}
		want, err := embedLegacy(c.g, c.faults)
		if err != nil || !equalResults(want, got) {
			t.Fatalf("B(%d,%d) faults %v: dense result diverges from legacy (legacy err %v)", c.g.D, c.g.N, c.faults, err)
		}
	}
}

// faultCase is one fault set with the graph it applies to.
type faultCase struct {
	g      *debruijn.Graph
	faults []int
}

// manyFaultSets returns seeded fault sets on binary graphs, far beyond
// the d−2 guarantee, under which the surviving graph splits: 0ⁿ is
// stranded once N(0…01) is faulty, and (01)^(n/2) once both of its
// neighbouring necklaces are.
func manyFaultSets() []faultCase {
	var sets []faultCase
	grids := []struct {
		n  int
		fs []int
	}{{6, []int{4, 8, 12}}, {8, []int{8, 16, 32}}, {10, []int{16, 32, 64}}}
	for _, gr := range grids {
		g := debruijn.New(2, gr.n)
		for _, f := range gr.fs {
			for seed := int64(0); seed < 10; seed++ {
				rng := newTestRNG(seed*7919 + int64(gr.n*1000+f))
				faults := make([]int, f)
				for i := range faults {
					faults[i] = rng.IntN(g.Size)
				}
				sets = append(sets, faultCase{g, faults})
			}
		}
	}
	return sets
}

// TestDenseTrialMatchesLegacy asserts the dense trial kernel consumes the
// RNG identically to the map kernel and returns the same statistics.
func TestDenseTrialMatchesLegacy(t *testing.T) {
	grids := []struct{ d, n int }{{2, 8}, {3, 4}, {4, 5}}
	for _, gr := range grids {
		g := debruijn.New(gr.d, gr.n)
		r := g.Successor(g.Repeat(0), 1)
		sc := newSimScratch(g)
		for f := 0; f <= 12; f += 3 {
			for seed := uint64(0); seed < 5; seed++ {
				rngA := rand.New(rand.NewPCG(seed, 42))
				rngB := rand.New(rand.NewPCG(seed, 42))
				s1, e1, d1 := oneTrialLegacy(g, r, f, rngA)
				s2, e2, d2 := sc.oneTrial(r, f, rngB)
				if s1 != s2 || e1 != e2 || d1 != d2 {
					t.Fatalf("B(%d,%d) f=%d seed=%d: legacy (%d,%d,%d) vs dense (%d,%d,%d)",
						gr.d, gr.n, f, seed, s1, e1, d1, s2, e2, d2)
				}
				// Both kernels must leave the shared stream in the same
				// place: the next draws have to agree.
				if a, b := rngA.Uint64(), rngB.Uint64(); a != b {
					t.Fatalf("B(%d,%d) f=%d seed=%d: RNG consumption diverged", gr.d, gr.n, f, seed)
				}
			}
		}
	}
}

// TestSimulateMatchesLegacyTables asserts the sharded dense Simulate
// reproduces the sequential map-based tables byte for byte.
func TestSimulateMatchesLegacyTables(t *testing.T) {
	counts := []int{0, 1, 3, 10}
	want := simulateLegacy(2, 8, counts, 40, 7)
	for _, workers := range []int{1, 4, 8} {
		got := SimulateWorkers(2, 8, counts, 40, 7, workers)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("workers=%d row %d: legacy %+v vs dense %+v", workers, i, want[i], got[i])
			}
		}
	}
}

// TestSimulateWorkerInvariance pins the determinism contract: identical
// output for workers ∈ {1, 4, 8} at a fixed seed.
func TestSimulateWorkerInvariance(t *testing.T) {
	counts := []int{0, 2, 5, 20}
	base := SimulateWorkers(4, 5, counts, 30, 1991, 1)
	for _, workers := range []int{4, 8} {
		rows := SimulateWorkers(4, 5, counts, 30, 1991, workers)
		for i := range base {
			if rows[i] != base[i] {
				t.Fatalf("workers=%d row %d: %+v != %+v", workers, i, rows[i], base[i])
			}
		}
	}
}
