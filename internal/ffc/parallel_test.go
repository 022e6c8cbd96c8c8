package ffc

// Tests of the Embedder's own contract: the reuse of its scratch across
// embeds, its eccentricity, its allocations, and the table it shares
// with other embedders on one graph.

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"debruijnring/internal/debruijn"
)

func randomFaults(rng *rand.Rand, size, nf int) []int {
	faults := make([]int, 0, nf)
	for len(faults) < nf {
		faults = append(faults, rng.IntN(size))
	}
	return faults
}

// TestEmbedScratchReuse drives one embedder through many full-path
// embeddings (the adapter-pool usage pattern) and pins each against a
// fresh embedder's: scratch reuse must not leak state between runs.
func TestEmbedScratchReuse(t *testing.T) {
	g := debruijn.New(2, 9)
	em := NewEmbedder(g)
	em.forceFull = true
	rng := rand.New(rand.NewPCG(7, 9))
	for trial := 0; trial < 12; trial++ {
		faults := randomFaults(rng, g.Size, trial%3)
		fresh := NewEmbedder(g)
		fresh.forceFull = true
		want, wantErr := fresh.EmbedDiff(faults)
		got, err := em.EmbedDiff(faults)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("trial %d faults=%v: err=%v, fresh err=%v", trial, faults, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d faults=%v: reused embedder diverges from a fresh one", trial, faults)
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
			for _, full := range []bool{false, true} { // the delta path's depths, and the BFS's
				em := NewEmbedder(g)
				em.forceFull = full
				res, err := em.EmbedCycle(faults)
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

// TestEmbedAllocs pins a warm EmbedCycle, on either path, to its
// Result: the Result itself, Cycle and FaultyNecklaces (a warm
// EmbedDiff, on either path, to those and its TreeDiff).
// Every other structure is pooled scratch, so a map or a per-run buffer
// creeping back into the kernel fails here before any benchmark gate.
// The per-node bitsets and arrays are sized on the first run and reused,
// not regrown, by every later one, whatever its fault set and path.
func TestEmbedAllocs(t *testing.T) {
	g := debruijn.New(2, 12)
	em := NewEmbedder(g)
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
		if _, err := em.EmbedDiff(c.faults); err != nil || em.delta != c.delta {
			t.Fatalf("%s path: err %v, delta %v", c.path, err, em.delta)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := em.EmbedDiff(c.faults); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Fatalf("warm %s EmbedDiff made %v allocations, want at most 4", c.path, allocs)
		}
		allocs = testing.AllocsPerRun(20, func() {
			if _, err := em.EmbedCycle(c.faults); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Fatalf("warm %s EmbedCycle made %v allocations, want at most 3", c.path, allocs)
		}
	}
	// A full path's TreeDiff belongs to its Result: the next embed
	// reuses the scratch it was gathered in, not the returned slice.
	first, err := em.EmbedDiff([]int{1, 1234, 4000})
	if err != nil || em.delta || len(first.TreeDiff) == 0 {
		t.Fatalf("full-path EmbedDiff: err %v, delta %v, %d edits", err, em.delta, len(first.TreeDiff))
	}
	keep := slices.Clone(first.TreeDiff)
	if _, err := em.EmbedDiff([]int{1, 77, 3000}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(first.TreeDiff, keep) {
		t.Fatal("a later full-path EmbedDiff rewrote an earlier Result's TreeDiff")
	}
	full := []any{&em.earliest[0], &em.repSeen[0]}
	for _, f := range [][]int{nil, {0}, {1}, {3}, {1, 2, 3, 700, 2047, 4095}, {77, 78, 79, 80, 81, 82, 83}} {
		if _, err := em.EmbedDiff(f); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range append(scratch(), &em.earliest[0], &em.repSeen[0]) {
		if p != append(grown, full...)[i] {
			t.Fatalf("a warm embed regrew per-node scratch array %d", i)
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
