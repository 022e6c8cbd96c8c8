package ffc

import (
	"sync"
	"testing"

	"debruijnring/internal/debruijn"
)

// TestDistributedMatchesSequential: the distributed protocol must produce
// exactly the cycle of the sequential algorithm when rooted at the same R
// (both implement the same deterministic tie-breaking).
func TestDistributedMatchesSequential(t *testing.T) {
	cases := []struct {
		d, n   int
		faults []string
	}{
		{3, 3, []string{"020", "112"}}, // Example 2.1
		{3, 3, nil},
		{2, 5, []string{"00101"}},
		{4, 3, []string{"013", "122"}},
		{5, 2, []string{"04", "13", "22"}},
		{2, 7, []string{"0010111"}},
		{4, 4, []string{"0123", "3321"}},
	}
	for _, tc := range cases {
		g := debruijn.New(tc.d, tc.n)
		faults := parseAll(t, g, tc.faults...)
		seq, err := EmbedCycle(g, faults)
		if err != nil {
			t.Fatalf("B(%d,%d) %v: sequential: %v", tc.d, tc.n, tc.faults, err)
		}
		dist, err := EmbedDistributedFrom(g, faults, seq.Root)
		if err != nil {
			t.Fatalf("B(%d,%d) %v: distributed: %v", tc.d, tc.n, tc.faults, err)
		}
		if dist.BStarSize != seq.BStarSize {
			t.Errorf("B(%d,%d) %v: |B*| %d vs %d", tc.d, tc.n, tc.faults, dist.BStarSize, seq.BStarSize)
		}
		if len(dist.Cycle) != len(seq.Cycle) {
			t.Fatalf("B(%d,%d) %v: cycle lengths %d vs %d", tc.d, tc.n, tc.faults, len(dist.Cycle), len(seq.Cycle))
		}
		for i := range seq.Cycle {
			if dist.Cycle[i] != seq.Cycle[i] {
				t.Fatalf("B(%d,%d) %v: cycles diverge at %d: %s vs %s",
					tc.d, tc.n, tc.faults, i, g.String(dist.Cycle[i]), g.String(seq.Cycle[i]))
			}
		}
	}
}

// TestDistributedRandom cross-checks the two implementations under random
// fault sets, including fault counts beyond d−2.
func TestDistributedRandom(t *testing.T) {
	g := debruijn.New(3, 4)
	rng := newTestRNG(11)
	for trial := 0; trial < 40; trial++ {
		f := rng.IntN(5)
		faults := make([]int, f)
		for i := range faults {
			faults[i] = rng.IntN(g.Size)
		}
		seq, err := EmbedCycle(g, faults)
		if err != nil {
			continue
		}
		dist, err := EmbedDistributedFrom(g, faults, seq.Root)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !g.IsCycle(dist.Cycle) {
			t.Fatalf("trial %d: invalid distributed cycle", trial)
		}
		if len(dist.Cycle) != len(seq.Cycle) {
			t.Fatalf("trial %d: lengths differ: %d vs %d", trial, len(dist.Cycle), len(seq.Cycle))
		}
	}
}

// TestDistributedRoundComplexity: the paper's Θ(n) claim (Proposition 2.2)
// — with f ≤ d−2 faults the whole protocol takes O(n) rounds: 3n + K + 2
// with K ≤ 2n.
func TestDistributedRoundComplexity(t *testing.T) {
	cases := []struct {
		d, n   int
		faults []string
	}{
		{3, 3, []string{"020"}},
		{4, 3, []string{"013", "113"}},
		{5, 2, []string{"04", "14", "23"}},
		{4, 4, []string{"0123", "3210"}},
		{3, 5, []string{"00120"}},
	}
	for _, tc := range cases {
		g := debruijn.New(tc.d, tc.n)
		faults := parseAll(t, g, tc.faults...)
		res, err := EmbedDistributed(g, faults)
		if err != nil {
			t.Fatalf("B(%d,%d): %v", tc.d, tc.n, err)
		}
		n := tc.n
		if res.Rounds.Probe != n || res.Rounds.Leader != n || res.Rounds.Membership != n {
			t.Errorf("B(%d,%d): necklace phases %+v, want %d each", tc.d, tc.n, res.Rounds, n)
		}
		if res.Rounds.Broadcast > 2*n {
			t.Errorf("B(%d,%d): broadcast took %d rounds > 2n (diameter bound of Prop 2.2)",
				tc.d, tc.n, res.Rounds.Broadcast)
		}
		if res.Rounds.Total() > 5*n+2 {
			t.Errorf("B(%d,%d): total rounds %d exceed 5n+2", tc.d, tc.n, res.Rounds.Total())
		}
		if res.Messages <= 0 {
			t.Error("message count not recorded")
		}
	}
}

// TestDistributedAutoRoot: without an explicit root the protocol roots at
// the minimal alive representative and still produces a valid ring.
func TestDistributedAutoRoot(t *testing.T) {
	g := debruijn.New(3, 3)
	res, err := EmbedDistributed(g, parseAll(t, g, "000"))
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsCycle(res.Cycle) {
		t.Error("invalid cycle")
	}
	// [000] is faulty, so the minimal alive representative is [001].
	if g.String(res.Root) != "001" {
		t.Errorf("auto root = %s, want 001", g.String(res.Root))
	}
}

func TestDistributedBadRoot(t *testing.T) {
	g := debruijn.New(3, 3)
	faults := parseAll(t, g, "020")
	// 020's necklace is faulty; 200 is not a representative.
	for _, root := range []string{"020", "200", "110"} {
		if _, err := EmbedDistributedFrom(g, faults, parse(t, g, root)); err == nil {
			t.Errorf("root %s should be rejected", root)
		}
	}
}

func TestDistributedAllFaulty(t *testing.T) {
	g := debruijn.New(2, 2)
	if _, err := EmbedDistributed(g, parseAll(t, g, "00", "01", "11")); err == nil {
		t.Error("expected error with every necklace faulty")
	}
}

// TestDistributedScratchReuse interleaves runs over different graphs
// and fault sets (including concurrent ones) and checks the pooled
// simulation scratch never leaks state between runs: each repetition is
// bit-identical to a fresh first run.
func TestDistributedScratchReuse(t *testing.T) {
	g1 := debruijn.New(2, 6)
	g2 := debruijn.New(3, 4)
	ref1, err := EmbedDistributed(g1, []int{5, 40})
	if err != nil {
		t.Fatal(err)
	}
	// A different (larger) graph between repetitions dirties the pool.
	if _, err := EmbedDistributed(g2, []int{7}); err != nil {
		t.Fatal(err)
	}
	again, err := EmbedDistributed(g1, []int{5, 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Cycle) != len(ref1.Cycle) || again.Messages != ref1.Messages || again.Rounds != ref1.Rounds {
		t.Fatalf("pooled rerun diverged: %+v vs %+v", again.Rounds, ref1.Rounds)
	}
	for i := range ref1.Cycle {
		if again.Cycle[i] != ref1.Cycle[i] {
			t.Fatalf("pooled rerun cycle diverges at %d", i)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := EmbedDistributed(g1, []int{5, 40})
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Cycle) != len(ref1.Cycle) {
					t.Errorf("concurrent run cycle length %d != %d", len(res.Cycle), len(ref1.Cycle))
					return
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkDistributedB45(b *testing.B) {
	g := debruijn.New(4, 5)
	faults := []int{17, 923}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EmbedDistributed(g, faults); err != nil {
			b.Fatal(err)
		}
	}
}
