package ffc

import (
	"testing"
	"testing/quick"

	"debruijnring/internal/debruijn"
)

// Property: for any fault set drawn from random nodes, the FFC result is a
// valid cycle of B*, visits no faulty necklace, and its length plus the
// dead/stranded nodes accounts for the whole graph.
func TestPropertyEmbedInvariants(t *testing.T) {
	g := debruijn.New(3, 4)
	check := func(seed uint32, fCount uint8) bool {
		f := int(fCount % 4)
		rng := newTestRNG(int64(seed))
		faults := make([]int, f)
		for i := range faults {
			faults[i] = rng.IntN(g.Size)
		}
		res, err := EmbedCycle(g, faults)
		if err != nil {
			return f > 0 // only a fully dead graph may fail, needs faults
		}
		if !g.IsCycle(res.Cycle) || len(res.Cycle) != res.BStarSize {
			return false
		}
		for _, x := range res.Cycle {
			if isFaulty(res, g.NecklaceRep(x)) {
				return false
			}
		}
		// Accounting: |B*| + faulty-necklace nodes + stranded ≤ dⁿ with
		// stranded = dⁿ − |B*| − dead ≥ 0.
		return res.BStarSize+res.FaultyNodeCount <= g.Size
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the distributed implementation always agrees with the
// sequential one when rooted identically.
func TestPropertyDistributedEquivalence(t *testing.T) {
	g := debruijn.New(2, 6)
	check := func(seed uint32, fCount uint8) bool {
		f := int(fCount % 3)
		rng := newTestRNG(int64(seed))
		faults := make([]int, f)
		for i := range faults {
			faults[i] = rng.IntN(g.Size)
		}
		seq, err := EmbedCycle(g, faults)
		if err != nil {
			return true
		}
		dist, err := EmbedDistributedFrom(g, faults, seq.Root)
		if err != nil {
			return false
		}
		if len(dist.Cycle) != len(seq.Cycle) {
			return false
		}
		for i := range seq.Cycle {
			if dist.Cycle[i] != seq.Cycle[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: FaultFreePath output is always a simple path of ≤ 2n steps
// between its endpoints when the premise f ≤ d−2 holds.
func TestPropertyFaultFreePath(t *testing.T) {
	g := debruijn.New(5, 3)
	check := func(seed uint32) bool {
		rng := newTestRNG(int64(seed))
		faults := []int{rng.IntN(g.Size), rng.IntN(g.Size), rng.IntN(g.Size)}
		reps := FaultyNecklaces(g, faults)
		if len(reps) > g.D-2 {
			return true
		}
		bad := func(v int) bool { return reps[g.NecklaceRep(v)] }
		x, y := rng.IntN(g.Size), rng.IntN(g.Size)
		if bad(x) || bad(y) {
			return true
		}
		path, err := FaultFreePath(g, x, y, reps)
		if err != nil {
			return false
		}
		if len(path)-1 > 2*g.N || path[0] != x || path[len(path)-1] != y {
			return false
		}
		seen := map[int]bool{}
		for i, v := range path {
			if seen[v] || bad(v) {
				return false
			}
			seen[v] = true
			if i+1 < len(path) && !g.IsEdge(v, path[i+1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
