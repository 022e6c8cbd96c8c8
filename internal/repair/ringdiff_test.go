package repair

import (
	"math/rand"
	"slices"
	"testing"
)

// ringDeltaMap is the map-based ring diff the bitset ringDiff replaced,
// kept as the reference implementation.
func ringDeltaMap(old, cur []int) (removed, added []int, truncated bool) {
	inOld := make(map[int]bool, len(old))
	for _, v := range old {
		inOld[v] = true
	}
	inNew := make(map[int]bool, len(cur))
	for _, v := range cur {
		inNew[v] = true
	}
	for _, v := range old {
		if !inNew[v] {
			removed = append(removed, v)
		}
	}
	for _, v := range cur {
		if !inOld[v] {
			added = append(added, v)
		}
	}
	if len(removed)+len(added) > deltaLimit {
		return nil, nil, true
	}
	return removed, added, false
}

// ringPair draws an old ring over a random subset of 0..nodes-1 and a
// new ring that drops `remove` of its nodes, adds `add` outside nodes
// and reshuffles the result.
func ringPair(rng *rand.Rand, nodes, remove, add int) (old, cur []int) {
	perm := rng.Perm(nodes)
	size := remove + (nodes-remove-add)/2 + rng.Intn((nodes-remove-add)/2+1)
	old = perm[:size]
	cur = append(slices.Clone(old[remove:]), perm[size:size+add]...)
	rng.Shuffle(len(cur), func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
	return old, cur
}

// TestRingDiffMatchesMap checks the bitset diff against the map
// reference over seeded random ring pairs: the same Removed and Added
// lists in the same order, and truncation exactly past deltaLimit.
func TestRingDiffMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var d ringDiff
	check := func(nodes int, old, cur []int) {
		t.Helper()
		got := d.diff(nodes, narrow(old), cur)
		r2, a2, t2 := ringDeltaMap(old, cur)
		if !slices.Equal(got.Removed, r2) || !slices.Equal(got.Added, a2) || got.Truncated != t2 {
			t.Fatalf("nodes %d: bitset %+v != map (%v, %v, %v)", nodes, got, r2, a2, t2)
		}
	}
	for i := 0; i < 500; i++ {
		// Sizes straddle word boundaries, and the same ringDiff serves
		// rings of different node counts.
		nodes := 1 + rng.Intn(700)
		remove := rng.Intn(nodes/3 + 1)
		add := rng.Intn(nodes/3 + 1)
		old, cur := ringPair(rng, nodes, remove, add)
		check(nodes, old, cur)
	}
	// Exactly at the limit the lists are carried; one past it they are
	// not, whichever side the extra node lands on.
	for _, tc := range []struct {
		remove, add int
		truncated   bool
	}{
		{deltaLimit, 0, false}, {0, deltaLimit, false}, {deltaLimit / 2, deltaLimit / 2, false},
		{deltaLimit + 1, 0, true}, {0, deltaLimit + 1, true}, {deltaLimit / 2, deltaLimit/2 + 1, true},
	} {
		old, cur := ringPair(rng, 1024, tc.remove, tc.add)
		check(1024, old, cur)
		if got := d.diff(1024, narrow(old), cur); got.Truncated != tc.truncated {
			t.Errorf("remove %d, add %d: truncated = %v, want %v", tc.remove, tc.add, got.Truncated, tc.truncated)
		}
	}
}
