package ffc

// Differential tests of the delta cold embed: every Result derived from
// the graph's fault-free base must equal, field by field, the full
// algorithm's (forced with the forceFull hook), and so must every error.

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"debruijnring/internal/debruijn"
)

// diffResults names the first field where a and b differ, or "".
func diffResults(a, b *Result) string {
	switch {
	case a.Root != b.Root:
		return fmt.Sprintf("Root %d vs %d", a.Root, b.Root)
	case a.BStarSize != b.BStarSize:
		return fmt.Sprintf("BStarSize %d vs %d", a.BStarSize, b.BStarSize)
	case a.Eccentricity != b.Eccentricity:
		return fmt.Sprintf("Eccentricity %d vs %d", a.Eccentricity, b.Eccentricity)
	case a.FaultyNodeCount != b.FaultyNodeCount:
		return fmt.Sprintf("FaultyNodeCount %d vs %d", a.FaultyNodeCount, b.FaultyNodeCount)
	case !slices.Equal(a.FaultyNecklaces, b.FaultyNecklaces):
		return fmt.Sprintf("FaultyNecklaces %v vs %v", a.FaultyNecklaces, b.FaultyNecklaces)
	case !slices.Equal(a.TreeDiff, b.TreeDiff):
		return fmt.Sprintf("TreeDiff (%d vs %d edits)", len(a.TreeDiff), len(b.TreeDiff))
	case !slices.Equal(a.Cycle, b.Cycle):
		return fmt.Sprintf("Cycle (%d vs %d nodes)", len(a.Cycle), len(b.Cycle))
	}
	return ""
}

// wholeTree expands an EmbedDiff Result's TreeDiff over g's Base into
// the whole tree T, ascending by child, and the Step-3 overrides it
// gives: every star closed in ascending member order, the stars by
// ascending label.  bad names the first edit that is out of order,
// changes nothing or names a necklace the base does not hang, or is "".
func wholeTree(g *debruijn.Graph, res *Result) (tree []TreeLink, ov []Override, bad string) {
	b := BaseOf(g)
	edits := res.TreeDiff
	for r := 1; r < g.Size; r++ {
		w := b.Label(r)
		if w < 0 {
			continue
		}
		l := TreeLink{Child: int32(r), Parent: b.Centre(int(w)), W: w}
		if len(edits) > 0 && edits[0].Child == int32(r) {
			if edits[0] == l {
				return nil, nil, fmt.Sprintf("TreeDiff entry %v changes nothing", l)
			}
			l, edits = edits[0], edits[1:]
		}
		if l.W >= 0 {
			tree = append(tree, l)
		}
	}
	if len(edits) > 0 {
		return nil, nil, fmt.Sprintf("TreeDiff entry %v is out of order or off the base tree", edits[0])
	}
	members := map[int32][]int32{} // label → the star's centre and children
	for _, l := range tree {
		if members[l.W] == nil {
			members[l.W] = []int32{l.Parent}
		}
		members[l.W] = append(members[l.W], l.Child)
	}
	for _, w := range slices.Sorted(maps.Keys(members)) {
		m := members[w]
		slices.Sort(m)
		for i, c := range m {
			next := m[(i+1)%len(m)]
			ov = append(ov, Override{Out: int32(SuffixNode(g, int(c), int(w))), In: int32(PrefixNode(g, int(next), int(w)))})
		}
	}
	return tree, ov, ""
}

// pair is a delta embedder and a full one on the same graph.
type pair struct{ delta, full *Embedder }

func newPair(g *debruijn.Graph) pair {
	p := pair{NewEmbedder(g), NewEmbedder(g)}
	p.full.forceFull = true
	return p
}

// check embeds faults on both paths, fails on any difference and
// reports whether the delta path served the embed.  The full path's
// overrides, left in its scratch, must be every star's ascending
// closure in the tree its TreeDiff expands to.
func (p pair) check(t testing.TB, faults []int) bool {
	t.Helper()
	g := p.full.g
	want, wantErr := p.full.EmbedDiff(faults)
	got, err := p.delta.EmbedDiff(faults)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("B(%d,%d) faults %v: delta err %v, full err %v", g.D, g.N, faults, err, wantErr)
	}
	if err == nil {
		if diff := diffResults(got, want); diff != "" {
			t.Fatalf("B(%d,%d) faults %v (delta path %v): %s", g.D, g.N, faults, p.delta.delta, diff)
		}
		_, ov, bad := wholeTree(g, want)
		if bad != "" {
			t.Fatalf("B(%d,%d) faults %v: %s", g.D, g.N, faults, bad)
		}
		if !slices.Equal(p.full.newOv, ov) {
			t.Fatalf("B(%d,%d) faults %v: the full path's overrides are not every star's ascending closure", g.D, g.N, faults)
		}
	}
	return p.delta.delta
}

// deltaGrid is the graphs every single and double faulty-necklace set
// is tried on.
var deltaGrid = []struct{ d, nMax int }{{2, 10}, {3, 6}, {4, 5}, {5, 3}}

// TestDeltaMatchesFullNecklaceSets tries every set of one or two faulty
// necklaces, faulted at their representatives.
func TestDeltaMatchesFullNecklaceSets(t *testing.T) {
	for _, gr := range deltaGrid {
		for n := 1; n <= gr.nMax; n++ {
			if testing.Short() && gr.d > 2 && n == gr.nMax {
				continue
			}
			g := debruijn.New(gr.d, n)
			p := newPair(g)
			var reps []int
			for x, r := range g.NecklaceReps() {
				if int(r) == x {
					reps = append(reps, x)
				}
			}
			deltas := 0
			for i, a := range reps {
				if p.check(t, []int{a}) {
					deltas++
				}
				for _, b := range reps[i+1:] {
					if p.check(t, []int{a, b}) {
						deltas++
					}
				}
			}
			if n >= 3 && deltas == 0 {
				t.Fatalf("B(%d,%d): no set took the delta path", gr.d, n)
			}
		}
	}
}

// TestDeltaMatchesFullRandom tries seeded random node sets of every size
// up to dⁿ/2 on one embedder pair per graph, so the scratch of one embed
// is what the next one reuses.  It ends with a few small sets per graph
// and with manyFaultSets, whose splits send most embeds down the full
// path on both embedders.
func TestDeltaMatchesFullRandom(t *testing.T) {
	for _, gr := range randomGrid {
		g := debruijn.New(gr.d, gr.n)
		p := newPair(g)
		deltas := 0
		for _, faults := range randomTrials(g) {
			if p.check(t, faults) {
				deltas++
			}
		}
		if deltas == 0 {
			t.Fatalf("B(%d,%d): no random set took the delta path", gr.d, gr.n)
		}
	}
	for _, gr := range []struct{ d, n int }{{2, 6}, {2, 8}, {2, 10}, {3, 5}, {4, 4}} {
		g := debruijn.New(gr.d, gr.n)
		p := newPair(g)
		rng := rand.New(rand.NewPCG(uint64(gr.d), uint64(gr.n)))
		for f := 0; f < 4; f++ {
			p.check(t, randomFaults(rng, g.Size, f))
		}
	}
	pairs := map[*debruijn.Graph]pair{}
	for _, c := range manyFaultSets() {
		p, ok := pairs[c.g]
		if !ok {
			p = newPair(c.g)
			pairs[c.g] = p
		}
		p.check(t, c.faults)
	}
}

// randomGrid is the graphs the seeded random fault sets are drawn on.
var randomGrid = []struct{ d, n int }{{2, 6}, {2, 9}, {2, 12}, {3, 5}, {3, 7}, {4, 4}, {5, 3}, {7, 2}}

// randomTrials returns g's seeded random node sets: every size up to
// dⁿ/2, every other one at most 2n.
func randomTrials(g *debruijn.Graph) [][]int {
	rng := rand.New(rand.NewPCG(uint64(g.D), uint64(g.N)))
	trials := 60
	if g.Size > 2000 {
		trials = 20
	}
	sets := make([][]int, trials)
	for trial := range sets {
		f := 1 + rng.IntN(g.Size/2)
		if trial%2 == 0 {
			f = 1 + rng.IntN(min(2*g.N, g.Size/2))
		}
		sets[trial] = randomFaults(rng, g.Size, f)
	}
	return sets
}

// TestEmbedCycleMatchesEmbedDiff runs EmbedCycle and EmbedDiff on one
// embedder per path over the seeded random sets, alternating which runs
// first: the ring-only embed must return EmbedDiff's Cycle and scalars
// (and errors), with a nil TreeDiff, on both paths.
func TestEmbedCycleMatchesEmbedDiff(t *testing.T) {
	for _, gr := range randomGrid {
		g := debruijn.New(gr.d, gr.n)
		for _, full := range []bool{false, true} {
			em := NewEmbedder(g)
			em.forceFull = full
			deltas := 0
			for i, faults := range randomTrials(g) {
				var want, got *Result
				var wantErr, err error
				if i%2 == 0 {
					want, wantErr = em.EmbedDiff(faults)
					got, err = em.EmbedCycle(faults)
				} else {
					got, err = em.EmbedCycle(faults)
					want, wantErr = em.EmbedDiff(faults)
				}
				if em.delta {
					deltas++
				}
				if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
					t.Fatalf("B(%d,%d) faults %v: EmbedCycle err %v, EmbedDiff err %v", g.D, g.N, faults, err, wantErr)
				}
				if err != nil {
					continue
				}
				if got.TreeDiff != nil {
					t.Fatalf("B(%d,%d) faults %v (full %v): EmbedCycle built %d edits",
						g.D, g.N, faults, full, len(got.TreeDiff))
				}
				got.TreeDiff = want.TreeDiff
				if diff := diffResults(got, want); diff != "" {
					t.Fatalf("B(%d,%d) faults %v (full %v): %s", g.D, g.N, faults, full, diff)
				}
			}
			if !full && deltas == 0 {
				t.Fatalf("B(%d,%d): no random set took the delta path", gr.d, gr.n)
			}
		}
	}
}

// TestDeltaNamedCases covers the sets at the edges of the delta path:
// each one names the path it must take.
func TestDeltaNamedCases(t *testing.T) {
	allReps := func(g *debruijn.Graph) []int {
		var out []int
		for x, r := range g.NecklaceReps() {
			if int(r) == x {
				out = append(out, x)
			}
		}
		return out
	}
	b28, b36, b34 := debruijn.New(2, 8), debruijn.New(3, 6), debruijn.New(3, 4)
	cases := []struct {
		name   string
		g      *debruijn.Graph
		faults []int
		delta  bool
		check  func(e *Embedder, res *Result) string
	}{
		{name: "0ⁿ faulty", g: b28, faults: []int{0, 77}},
		{name: "0ⁿ faulty, d=3", g: b34, faults: []int{0}},
		{name: "0ⁿ stranded", g: b28, faults: []int{1}},
		{name: "0ⁿ stranded, d=3", g: b34, faults: []int{1, 2}},
		{name: "B* without 0ⁿ", g: debruijn.New(2, 10), faults: []int{2, 333},
			check: func(_ *Embedder, res *Result) string {
				if res.Root == 0 {
					return "B* holds 0ⁿ"
				}
				return ""
			}},
		{name: "every necklace faulty", g: debruijn.New(2, 5), faults: allReps(debruijn.New(2, 5))},
		{name: "no faults", g: b36, delta: true,
			check: func(e *Embedder, res *Result) string {
				if e.relevelled != 0 || len(res.Cycle) != e.g.Size {
					return "the fault-free embed is not the base"
				}
				return ""
			}},
		{name: "over half re-levelled", g: b36, faults: []int{1, 7}, delta: true,
			check: func(e *Embedder, _ *Result) string {
				if 2*e.relevelled <= e.g.Size {
					return fmt.Sprintf("only %d of %d nodes re-levelled", e.relevelled, e.g.Size)
				}
				return ""
			}},
		{name: "top level only", g: b28, faults: []int{255}, delta: true},
	}
	for _, c := range cases {
		p := newPair(c.g)
		if got := p.check(t, c.faults); got != c.delta {
			t.Errorf("%s: delta path %v, want %v", c.name, got, c.delta)
		}
		if c.check != nil {
			res, err := p.delta.EmbedDiff(c.faults)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if msg := c.check(p.delta, res); msg != "" {
				t.Errorf("%s: %s", c.name, msg)
			}
		}
	}
	if _, err := newPair(debruijn.New(2, 5)).delta.EmbedDiff(allReps(debruijn.New(2, 5))); err == nil {
		t.Error("every necklace faulty: no error")
	}
}

// TestBaseShape pins the base ring to the shape the delta path relies
// on: the fault-free ring from 0ⁿ with its position index, every depth
// the digit count, and depth L holding [d^(L−1), d^L).
func TestBaseShape(t *testing.T) {
	for _, gr := range []struct{ d, n int }{{2, 1}, {2, 7}, {2, 12}, {3, 1}, {3, 5}, {4, 4}, {5, 3}, {6, 3}} {
		g := debruijn.New(gr.d, gr.n)
		b := baseOf(g)
		em := NewEmbedder(g)
		em.s.resetFaults()
		em.s.label()
		for x := 0; x < g.Size; x++ {
			digits := 0
			for y := x; y > 0; y /= g.D {
				digits++
			}
			if int(em.s.dist[x]) != digits {
				t.Fatalf("B(%d,%d): node %d at depth %d, digit count %d", g.D, g.N, x, em.s.dist[x], digits)
			}
			if b.cycle[b.pos[x]] != x {
				t.Fatalf("B(%d,%d): position index wrong at node %d", g.D, g.N, x)
			}
		}
		if b.cycle[0] != 0 || len(b.cycle) != g.Size || !g.IsHamiltonian(b.cycle) {
			t.Fatalf("B(%d,%d): base ring starts at %d with %d nodes", g.D, g.N, b.cycle[0], len(b.cycle))
		}
		for k, p := range b.pow {
			if p != g.Pow(k) {
				t.Fatalf("B(%d,%d): pow[%d] = %d", g.D, g.N, k, p)
			}
		}
	}
}

// FuzzDeltaMatchesFull compares the paths on fuzzed fault sets: each
// byte pair of the input is one faulty node.
func FuzzDeltaMatchesFull(f *testing.F) {
	f.Add(uint8(2), uint8(8), []byte{0, 1})
	f.Add(uint8(3), uint8(4), []byte{0, 5, 0, 7})
	f.Add(uint8(2), uint8(10), []byte{1, 77, 2, 200, 3, 0})
	f.Add(uint8(4), uint8(3), []byte{0, 0})
	pairs := map[[2]uint8]pair{}
	f.Fuzz(func(t *testing.T, d, n uint8, data []byte) {
		d, n = 2+d%4, 1+n%8
		if int(n) > 10/int(d)+3 {
			n = uint8(10/int(d) + 3)
		}
		p, ok := pairs[[2]uint8{d, n}]
		if !ok {
			p = newPair(debruijn.New(int(d), int(n)))
			pairs[[2]uint8{d, n}] = p
		}
		size := p.full.g.Size
		var faults []int
		for i := 0; i+1 < len(data); i += 2 {
			faults = append(faults, (int(data[i])<<8|int(data[i+1]))%size)
		}
		p.check(t, faults)
	})
}

// TestBaseOfMatchesFaultFreeEmbed pins Base to the tree the full path
// builds for no faults: a forced-full fault-free EmbedDiff has no edits
// and returns the base ring, and the full path's own tree (its stars)
// hangs every necklace by Base's label from Base's centre.
func TestBaseOfMatchesFaultFreeEmbed(t *testing.T) {
	for _, gr := range []struct{ d, n int }{{2, 1}, {2, 6}, {2, 9}, {3, 4}, {4, 3}, {5, 2}, {6, 3}} {
		g := debruijn.New(gr.d, gr.n)
		p := newPair(g)
		p.check(t, nil)
		res, err := p.full.EmbedDiff(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.TreeDiff) != 0 || !slices.Equal(res.Cycle, baseOf(g).cycle) {
			t.Fatalf("B(%d,%d): fault-free full embed has %d edits, base ring %v", gr.d, gr.n, len(res.TreeDiff), slices.Equal(res.Cycle, baseOf(g).cycle))
		}
		b := BaseOf(g)
		label, centre := make([]int32, g.Size), make([]int32, g.Pow(g.N-1))
		for _, tab := range [][]int32{label, centre} {
			for i := range tab {
				tab[i] = -1
			}
		}
		for _, st := range p.full.stars {
			label[st.child], centre[st.w] = st.w, st.parent
		}
		for x := range label {
			if b.Label(x) != label[x] {
				t.Fatalf("B(%d,%d) necklace %d: Base label %d, embed %d", gr.d, gr.n, x, b.Label(x), label[x])
			}
		}
		for w := range centre {
			if b.Centre(w) != centre[w] {
				t.Fatalf("B(%d,%d) label %d: Base centre %d, embed %d", gr.d, gr.n, w, b.Centre(w), centre[w])
			}
		}
	}
}
