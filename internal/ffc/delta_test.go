package ffc

// Differential tests of the delta cold embed: every Result derived from
// the graph's fault-free base must equal, field by field, the full
// algorithm's (forced with the forceFull hook), and so must every error.

import (
	"fmt"
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
	case !slices.Equal(a.Tree, b.Tree):
		return fmt.Sprintf("Tree (%d vs %d links)", len(a.Tree), len(b.Tree))
	case !slices.Equal(a.Overrides, b.Overrides):
		return fmt.Sprintf("Overrides (%d vs %d)", len(a.Overrides), len(b.Overrides))
	case !slices.Equal(a.Cycle, b.Cycle):
		return fmt.Sprintf("Cycle (%d vs %d nodes)", len(a.Cycle), len(b.Cycle))
	case (a.Tree == nil) != (b.Tree == nil) || (a.Overrides == nil) != (b.Overrides == nil):
		return "nil-ness of Tree or Overrides"
	}
	return ""
}

// pair is a delta embedder and a full one on the same graph.
type pair struct{ delta, full *Embedder }

func newPair(g *debruijn.Graph) pair {
	p := pair{NewEmbedder(g), NewEmbedder(g)}
	p.full.forceFull = true
	return p
}

// check embeds faults on both paths, fails on any difference and
// reports whether the delta path served the embed.
func (p pair) check(t testing.TB, faults []int) bool {
	t.Helper()
	g := p.full.g
	want, wantErr := p.full.Embed(faults)
	got, err := p.delta.Embed(faults)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("B(%d,%d) faults %v: delta err %v, full err %v", g.D, g.N, faults, err, wantErr)
	}
	if err == nil {
		if diff := diffResults(got, want); diff != "" {
			t.Fatalf("B(%d,%d) faults %v (delta path %v): %s", g.D, g.N, faults, p.delta.delta, diff)
		}
	}
	delta := p.delta.delta
	for _, em := range []*Embedder{p.delta, p.full} {
		got, err := em.EmbedDiff(faults)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("B(%d,%d) faults %v: EmbedDiff err %v, Embed err %v", g.D, g.N, faults, err, wantErr)
		}
		if err == nil {
			if diff := diffBaseEdits(g, got, want); diff != "" {
				t.Fatalf("B(%d,%d) faults %v: EmbedDiff (delta path %v): %s", g.D, g.N, faults, em.delta, diff)
			}
		}
	}
	return delta
}

// diffBaseEdits names the first way an EmbedDiff Result got differs
// from the Embed Result want: its scalars and cycle, its TreeDiff
// applied to the base against want's Tree, or want's Overrides against
// the ascending closure of every star of that tree.  An edit must
// change what it names, and the edits must ascend.
func diffBaseEdits(g *debruijn.Graph, got, want *Result) string {
	if got.Tree != nil || got.Overrides != nil {
		return "EmbedDiff built Tree or Overrides"
	}
	scalars := *got
	scalars.Tree, scalars.Overrides = want.Tree, want.Overrides
	if diff := diffResults(&scalars, want); diff != "" {
		return diff
	}
	byChild := map[int32]TreeLink{}
	for _, l := range baseOf(g).tree {
		byChild[l.Child] = l
	}
	for i, l := range got.TreeDiff {
		if i > 0 && got.TreeDiff[i-1].Child >= l.Child {
			return fmt.Sprintf("TreeDiff does not ascend at %d", i)
		}
		if old, ok := byChild[l.Child]; ok && old == l || !ok && l.W < 0 {
			return fmt.Sprintf("TreeDiff entry %v changes nothing", l)
		}
		if l.W < 0 {
			delete(byChild, l.Child)
		} else {
			byChild[l.Child] = l
		}
	}
	if len(byChild) != len(want.Tree) {
		return fmt.Sprintf("base + TreeDiff has %d links, Tree %d", len(byChild), len(want.Tree))
	}
	members := map[int32][]int32{} // label → the star's children, then its centre
	for _, l := range want.Tree {
		if byChild[l.Child] != l {
			return fmt.Sprintf("base + TreeDiff hangs [%d] by %v, Tree by %v", l.Child, byChild[l.Child], l)
		}
		if members[l.W] == nil {
			members[l.W] = []int32{l.Parent}
		}
		members[l.W] = append(members[l.W], l.Child)
	}
	var ascending []Override
	for w, m := range members {
		slices.Sort(m)
		for i, c := range m {
			next := m[(i+1)%len(m)]
			ascending = append(ascending, Override{Out: int32(SuffixNode(g, int(c), int(w))), In: int32(PrefixNode(g, int(next), int(w)))})
		}
	}
	byOut := func(a, b Override) int { return int(a.Out) - int(b.Out) }
	slices.SortFunc(ascending, byOut)
	if ov := slices.SortedFunc(slices.Values(want.Overrides), byOut); !slices.Equal(ov, ascending) {
		return "Overrides are not every star's ascending closure"
	}
	return ""
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

// TestEmbedCycleMatchesEmbed runs EmbedCycle and Embed on one embedder
// per path over the seeded random sets, alternating which runs first:
// the ring-only embed must return Embed's Cycle and scalars (and
// errors), with nil Tree and Overrides, on both paths.
func TestEmbedCycleMatchesEmbed(t *testing.T) {
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
					want, wantErr = em.Embed(faults)
					got, err = em.EmbedCycle(faults)
				} else {
					got, err = em.EmbedCycle(faults)
					want, wantErr = em.Embed(faults)
				}
				if em.delta {
					deltas++
				}
				if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
					t.Fatalf("B(%d,%d) faults %v: EmbedCycle err %v, Embed err %v", g.D, g.N, faults, err, wantErr)
				}
				if err != nil {
					continue
				}
				if got.Tree != nil || got.Overrides != nil {
					t.Fatalf("B(%d,%d) faults %v (full %v): EmbedCycle built %d links and %d overrides",
						g.D, g.N, faults, full, len(got.Tree), len(got.Overrides))
				}
				got.Tree, got.Overrides = want.Tree, want.Overrides
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
			res, err := p.delta.Embed(c.faults)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if msg := c.check(p.delta, res); msg != "" {
				t.Errorf("%s: %s", c.name, msg)
			}
		}
	}
	if _, err := newPair(debruijn.New(2, 5)).delta.Embed(allReps(debruijn.New(2, 5))); err == nil {
		t.Error("every necklace faulty: no error")
	}
}

// TestBaseShape pins the base to the shape the delta path relies on:
// the fault-free ring from 0ⁿ, every depth the digit count, and every
// necklace r hung from rep(r/d) by label r/d.
func TestBaseShape(t *testing.T) {
	for _, gr := range []struct{ d, n int }{{2, 1}, {2, 7}, {2, 12}, {3, 1}, {3, 5}, {4, 4}, {5, 3}, {6, 3}} {
		g := debruijn.New(gr.d, gr.n)
		b := baseOf(g)
		em := NewEmbedder(g)
		em.s.resetFaults()
		em.s.label()
		reps := g.NecklaceReps()
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
		if b.cycle[0] != 0 || len(b.cycle) != g.Size {
			t.Fatalf("B(%d,%d): base ring starts at %d with %d nodes", g.D, g.N, b.cycle[0], len(b.cycle))
		}
		for _, l := range b.tree {
			if w := int(l.Child) / g.D; int(l.W) != w || l.Parent != reps[w] {
				t.Fatalf("B(%d,%d): necklace %d hangs from %d by %d", g.D, g.N, l.Child, l.Parent, l.W)
			}
		}
		if int(b.starOff[len(b.starW)]) != len(b.ov) {
			t.Fatalf("B(%d,%d): star runs cover %d of %d overrides", g.D, g.N, b.starOff[len(b.starW)], len(b.ov))
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

// TestBaseOfMatchesFaultFreeEmbed checks Base's lookups against the
// fault-free embed they stand for, every necklace's label and every
// star's centre in its tree, and that the embed's overrides are its
// stars' ascending closures.
func TestBaseOfMatchesFaultFreeEmbed(t *testing.T) {
	for _, gr := range []struct{ d, n int }{{2, 1}, {2, 6}, {2, 9}, {3, 4}, {4, 3}, {5, 2}} {
		g := debruijn.New(gr.d, gr.n)
		res, err := Embed(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		diff, err := EmbedDiff(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffBaseEdits(g, diff, res); d != "" || len(diff.TreeDiff) != 0 {
			t.Fatalf("B(%d,%d): fault-free EmbedDiff: %s, %d edits", gr.d, gr.n, d, len(diff.TreeDiff))
		}
		b := BaseOf(g)
		label, centre := make([]int32, g.Size), make([]int32, g.Pow(g.N-1))
		for _, tab := range [][]int32{label, centre} {
			for i := range tab {
				tab[i] = -1
			}
		}
		for _, l := range res.Tree {
			label[l.Child], centre[l.W] = l.W, l.Parent
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
