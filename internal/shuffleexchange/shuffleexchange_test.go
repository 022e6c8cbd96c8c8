package shuffleexchange

import (
	"math/big"
	"testing"

	"debruijnring/internal/debruijn"
	"debruijnring/internal/necklace"
	"debruijnring/internal/word"
)

func TestNeighborsAndEdges(t *testing.T) {
	g := New(2, 3)
	x, _ := g.Parse("010")
	// Shuffle: 100; unshuffle: 001; exchange: 011.
	if g.String(g.Shuffle(x)) != "100" || g.String(g.Unshuffle(x)) != "001" {
		t.Errorf("shuffle/unshuffle of 010: %s, %s", g.String(g.Shuffle(x)), g.String(g.Unshuffle(x)))
	}
	ex := g.Exchanges(x, nil)
	if len(ex) != 1 || g.String(ex[0]) != "011" {
		t.Errorf("exchanges of 010: %v", ex)
	}
	nb := g.Neighbors(x, nil)
	if len(nb) != 3 {
		t.Errorf("neighbours of 010: %v", nb)
	}
	for _, y := range nb {
		if !g.IsEdge(x, y) || !g.IsEdge(y, x) {
			t.Errorf("edge {%s,%s} not symmetric", g.String(x), g.String(y))
		}
	}
	if g.IsEdge(x, x) {
		t.Error("no self edges")
	}
	// Constant words lose both rotation edges (self-loops removed),
	// keeping only their exchange neighbour(s).
	zero := g.Repeat(0)
	nb = g.Neighbors(zero, nil)
	if len(nb) != 1 || g.String(nb[0]) != "001" {
		t.Errorf("neighbours of 000: %v (want just the exchange 001)", nb)
	}
}

// TestShuffleOrbitsAreNecklaces: the shuffle-only subgraph decomposes into
// exactly the necklaces of Chapter 4, and the orbit count matches the
// closed-form total.
func TestShuffleOrbitsAreNecklaces(t *testing.T) {
	for _, tc := range []struct{ d, n int }{{2, 6}, {2, 12}, {3, 4}, {4, 3}} {
		g := New(tc.d, tc.n)
		orbits := g.ShuffleOrbits()
		want := necklace.CountAll(tc.d, tc.n)
		if big.NewInt(int64(len(orbits))).Cmp(want) != 0 {
			t.Errorf("SE(%d,%d): %d shuffle orbits, formula gives %v", tc.d, tc.n, len(orbits), want)
		}
		covered := 0
		for rep, nodes := range orbits {
			covered += len(nodes)
			for _, x := range nodes {
				if g.NecklaceRep(x) != rep {
					t.Fatalf("orbit of %s misassigned", g.String(x))
				}
			}
			// Consecutive orbit members are shuffle neighbours.
			for i, x := range nodes {
				if g.Shuffle(x) != nodes[(i+1)%len(nodes)] {
					t.Fatalf("orbit of [%s] is not a shuffle cycle", g.String(rep))
				}
			}
		}
		if covered != g.Size {
			t.Errorf("SE(%d,%d): orbits cover %d of %d nodes", tc.d, tc.n, covered, g.Size)
		}
	}
}

// TestAsymptoticNecklaceDensity checks the [PI92]-flavoured asymptotics the
// chapter mentions: the necklace count approaches dⁿ/n as n grows (full-
// length necklaces dominate).
func TestAsymptoticNecklaceDensity(t *testing.T) {
	for _, n := range []int{8, 12, 16, 20} {
		s := word.New(2, n)
		count := necklace.CountAll(2, n)
		ideal := new(big.Int).Div(big.NewInt(int64(s.Size)), big.NewInt(int64(n)))
		ratio := new(big.Float).Quo(new(big.Float).SetInt(count), new(big.Float).SetInt(ideal))
		r, _ := ratio.Float64()
		if r < 1.0 || r > 1.2 {
			t.Errorf("n=%d: necklace count / (2ⁿ/n) = %.4f, want → 1⁺", n, r)
		}
	}
}

func TestEmulateDeBruijnEdge(t *testing.T) {
	g := New(3, 3)
	db := debruijn.New(3, 3)
	var buf []int
	for x := 0; x < db.Size; x++ {
		buf = db.Successors(x, buf)
		for _, y := range buf {
			if x == y {
				continue
			}
			path, err := g.EmulateDeBruijnEdge(x, y)
			if err != nil {
				t.Fatalf("edge (%s,%s): %v", db.String(x), db.String(y), err)
			}
			if len(path) > 3 || path[0] != x || path[len(path)-1] != y {
				t.Fatalf("bad emulation path %v", path)
			}
			for i := 0; i+1 < len(path); i++ {
				if !g.IsEdge(path[i], path[i+1]) {
					t.Fatalf("emulation step (%s,%s) is not an SE edge",
						g.String(path[i]), g.String(path[i+1]))
				}
			}
		}
	}
	// Non-De-Bruijn pairs are rejected.
	if _, err := g.EmulateDeBruijnEdge(0, 8); err == nil {
		t.Error("non-edge should be rejected")
	}
}

// TestEmbedRingFaultFree: the FFC ring transfers to SE(d,n) with dilation
// ≤ 2, congestion 1 per directed channel, and no faulty necklace touched —
// including by the intermediate nodes.
func TestEmbedRingFaultFree(t *testing.T) {
	for _, tc := range []struct {
		d, n   int
		faults []string
	}{
		{3, 3, []string{"020", "112"}},
		{4, 3, []string{"013", "231"}},
		{5, 2, []string{"04", "13", "22"}},
	} {
		db := debruijn.New(tc.d, tc.n)
		var faults []int
		for _, s := range tc.faults {
			x, err := db.Parse(s)
			if err != nil {
				t.Fatal(err)
			}
			faults = append(faults, x)
		}
		g := New(tc.d, tc.n)
		emb, err := g.EmbedRing(faults)
		if err != nil {
			t.Fatalf("SE(%d,%d): %v", tc.d, tc.n, err)
		}
		if emb.Dilation() > 2 {
			t.Errorf("dilation %d > 2", emb.Dilation())
		}
		if len(emb.Walk) > 2*len(emb.Ring) {
			t.Errorf("walk length %d exceeds 2×ring %d", len(emb.Walk), 2*len(emb.Ring))
		}
		// Walk validity and fault avoidance (whole faulty necklaces).
		bad := map[int]bool{}
		for _, f := range faults {
			bad[db.NecklaceRep(f)] = true
		}
		k := len(emb.Walk)
		channelUse := map[[2]int]int{} // directed
		wireUse := map[[2]int]int{}    // undirected
		for i, x := range emb.Walk {
			y := emb.Walk[(i+1)%k]
			if !g.IsEdge(x, y) {
				t.Fatalf("walk step (%s,%s) is not an SE edge", g.String(x), g.String(y))
			}
			if bad[db.NecklaceRep(x)] {
				t.Fatalf("walk visits faulty necklace node %s", g.String(x))
			}
			channelUse[[2]int{x, y}]++
			a, b := x, y
			if a > b {
				a, b = b, a
			}
			wireUse[[2]int{a, b}]++
		}
		for e, uses := range channelUse {
			if uses > 1 {
				t.Errorf("directed SE channel %v carries %d ring edges (congestion > 1)", e, uses)
			}
		}
		for e, uses := range wireUse {
			if uses > 2 {
				t.Errorf("undirected SE wire %v carries %d ring edges (> 2)", e, uses)
			}
		}
	}
}

func BenchmarkEmbedRingSE(b *testing.B) {
	g := New(4, 4)
	for i := 0; i < b.N; i++ {
		if _, err := g.EmbedRing([]int{7, 99}); err != nil {
			b.Fatal(err)
		}
	}
}
