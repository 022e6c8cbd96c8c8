package ffc

// Determinism harness for the frontier-parallel Step 1.1 broadcast: the
// parallel BFS must be bit-identical to the serial scan — same ring,
// same necklace tree, same eccentricity, same overrides — for every
// worker count, because sessions journal rings by hash and replicas
// replay them.  The tests force the worker pool onto small instances by
// lowering the parallel threshold, so `go test -race ./internal/ffc/`
// exercises the real worker/merge code paths.

import (
	"hash/fnv"
	"math/rand/v2"
	"reflect"
	"testing"

	"debruijnring/internal/debruijn"
)

// resultHash canonically hashes the observable embedding output (ring,
// eccentricity, tree, overrides) — the same identity sessions rely on
// when journaled rings are hash-verified across replicas.
func resultHash(res *Result) uint64 {
	h := fnv.New64a()
	wr := func(vs ...int) {
		var b [8]byte
		for _, v := range vs {
			for i := 0; i < 8; i++ {
				b[i] = byte(uint64(v) >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	wr(res.Root, res.BStarSize, res.Eccentricity, len(res.Cycle))
	wr(res.Cycle...)
	for _, l := range res.Tree {
		wr(int(l.Child), int(l.Parent), int(l.W))
	}
	for _, o := range res.Overrides {
		wr(int(o.Out), int(o.In))
	}
	return h.Sum64()
}

func randomFaults(rng *rand.Rand, size, nf int) []int {
	faults := make([]int, 0, nf)
	for len(faults) < nf {
		faults = append(faults, rng.IntN(size))
	}
	return faults
}

func TestEmbedParallelDeterminism(t *testing.T) {
	grid := []struct{ d, n int }{{2, 6}, {2, 8}, {2, 10}, {3, 5}, {4, 4}}
	for _, tc := range grid {
		g := debruijn.New(tc.d, tc.n)
		rng := rand.New(rand.NewPCG(uint64(tc.d), uint64(tc.n)))
		for trial := 0; trial < 4; trial++ {
			checkParallelDeterminism(t, g, randomFaults(rng, g.Size, trial))
		}
	}
	// The many-fault binary sets split the surviving graph, so every
	// component's BFS — not only the broadcast from R — goes through the
	// worker pool.
	for _, c := range manyFaultSets() {
		checkParallelDeterminism(t, c.g, c.faults)
	}
}

// checkParallelDeterminism embeds faults serially and then at every
// worker count with the parallel threshold forced down, and requires the
// serial output exactly.  The parallel embedders are forced onto the
// full path, the one whose BFS the workers share.
func checkParallelDeterminism(t *testing.T, g *debruijn.Graph, faults []int) {
	t.Helper()
	serial := NewEmbedder(g)
	serial.Workers = 1
	want, wantErr := serial.Embed(faults)

	// Threshold 1 puts every level through the worker pool; threshold 8
	// mixes serial shallow levels with parallel deep ones — both must
	// replay the serial output exactly.
	for _, threshold := range []int{1, 8} {
		for _, w := range []int{1, 2, 4, 8} {
			em := NewEmbedder(g)
			em.Workers = w
			em.parallelFrontier = threshold
			em.forceFull = true
			got, err := em.Embed(faults)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("B(%d,%d) faults=%v workers=%d threshold=%d: err=%v, serial err=%v",
					g.D, g.N, faults, w, threshold, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("B(%d,%d) faults=%v workers=%d threshold=%d: result diverges from serial",
					g.D, g.N, faults, w, threshold)
			}
			if resultHash(got) != resultHash(want) {
				t.Fatalf("B(%d,%d) faults=%v workers=%d threshold=%d: hash diverges from serial",
					g.D, g.N, faults, w, threshold)
			}
		}
	}
}

// TestEmbedParallelScratchReuse drives one pooled embedder through many
// parallel embeddings (the adapter-pool usage pattern) and pins each
// against a fresh serial run: epoch-stamped scratch reuse must not leak
// state between runs at any worker count.
func TestEmbedParallelScratchReuse(t *testing.T) {
	g := debruijn.New(2, 9)
	em := NewEmbedder(g)
	em.Workers = 4
	em.parallelFrontier = 1
	em.forceFull = true
	rng := rand.New(rand.NewPCG(7, 9))
	for trial := 0; trial < 12; trial++ {
		faults := randomFaults(rng, g.Size, trial%3)
		serial := NewEmbedder(g)
		serial.Workers = 1
		want, wantErr := serial.Embed(faults)
		got, err := em.Embed(faults)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("trial %d faults=%v: err=%v, serial err=%v", trial, faults, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d faults=%v: reused parallel embedder diverges from fresh serial", trial, faults)
		}
	}
}

// TestEmbedEccentricityMatchesLegacy pins the explicit level-depth
// eccentricity against the legacy map-based broadcast.  The old code
// read the distance of the *last visited* node, which is only correct
// under strict level order — any frontier-merge reordering would have
// silently misreported it; the explicit counter cannot.
func TestEmbedEccentricityMatchesLegacy(t *testing.T) {
	grid := []struct{ d, n int }{{2, 8}, {2, 10}, {3, 5}, {4, 4}}
	for _, tc := range grid {
		g := debruijn.New(tc.d, tc.n)
		rng := rand.New(rand.NewPCG(uint64(tc.n), uint64(tc.d)))
		for trial := 0; trial < 4; trial++ {
			faults := randomFaults(rng, g.Size, trial)
			faultyReps := FaultyNecklaces(g, faults)
			alive := func(x int) bool { return !faultyReps[g.NecklaceRep(x)] }
			comp, err := LargestComponent(g, alive)
			if err != nil {
				t.Fatalf("B(%d,%d) faults=%v: %v", tc.d, tc.n, faults, err)
			}
			_, _, ecc := broadcastTreeLegacy(g, comp.MinNode, comp.Member)
			for _, full := range []bool{false, true} { // the delta path's depths, and the parallel BFS's
				em := NewEmbedder(g)
				em.Workers = 4
				em.parallelFrontier = 1
				em.forceFull = full
				res, err := em.Embed(faults)
				if err != nil {
					t.Fatalf("B(%d,%d) faults=%v: %v", tc.d, tc.n, faults, err)
				}
				if res.Eccentricity != ecc {
					t.Errorf("B(%d,%d) faults=%v full=%v: Eccentricity=%d, legacy broadcast says %d",
						tc.d, tc.n, faults, full, res.Eccentricity, ecc)
				}
			}
		}
	}
}

// TestEmbedAllocs pins a warm serial Embed, on either path, to its
// Result: the Result itself, Cycle, Tree, Overrides and FaultyNecklaces.
// Every other structure is pooled scratch, so a map or a per-run buffer
// creeping back into the kernel fails here before any benchmark gate.
// The per-node bitsets and arrays are sized on the first run and reused,
// not regrown, by every later one, whatever its fault set and path.
func TestEmbedAllocs(t *testing.T) {
	g := debruijn.New(2, 12)
	em := NewEmbedder(g)
	em.Workers = 1
	scratch := func() []any { // addresses: any values compare their pointers
		return []any{&em.s.dead[0], &em.s.seen[0], &em.s.dist[0], &em.s.order[:1][0], &em.moved[0], &em.ovSet[0], &em.ovTo[0]}
	}
	grown := scratch()
	for _, c := range []struct {
		path   string
		faults []int
		delta  bool
	}{
		{"delta", []int{5, 1234, 4000}, true},
		{"full", []int{1, 1234, 4000}, false}, // N(0…01) strands 0ⁿ
	} {
		if _, err := em.Embed(c.faults); err != nil || em.delta != c.delta {
			t.Fatalf("%s path: err %v, delta %v", c.path, err, em.delta)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := em.Embed(c.faults); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 5 {
			t.Fatalf("warm %s Embed made %v allocations, want at most 5", c.path, allocs)
		}
	}
	full := []any{&em.earliest[0], &em.repSeen[0]}
	for _, f := range [][]int{nil, {0}, {1}, {3}, {1, 2, 3, 700, 2047, 4095}, {77, 78, 79, 80, 81, 82, 83}} {
		if _, err := em.Embed(f); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range append(scratch(), &em.earliest[0], &em.repSeen[0]) {
		if p != append(grown, full...)[i] {
			t.Fatalf("a warm Embed regrew per-node scratch array %d", i)
		}
	}
}

// TestEmbeddersShareNecklaceTable pins the necklace-representative
// table to one per graph: every Embedder, and Simulate's trial scratch,
// reads the graph's slice instead of tabulating its own.
func TestEmbeddersShareNecklaceTable(t *testing.T) {
	g := debruijn.New(3, 5)
	a, b := NewEmbedder(g), NewEmbedder(g)
	sc := newSimScratch(g)
	if &a.s.reps[0] != &b.s.reps[0] || &a.s.reps[0] != &sc.s.reps[0] || &a.s.reps[0] != &g.NecklaceReps()[0] {
		t.Fatal("embedders on one graph hold separate necklace tables")
	}
	if c := NewEmbedder(debruijn.New(3, 5)); &c.s.reps[0] == &a.s.reps[0] {
		t.Fatal("embedders on distinct graphs share a necklace table")
	}
}
