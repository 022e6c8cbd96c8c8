package topology

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// TestFaultSetUnionIncremental grows a fault set one batch at a time —
// the session-subsystem access pattern — and checks that duplicates
// collapse, order does not matter, and the accumulated Key is stable.
func TestFaultSetUnionIncremental(t *testing.T) {
	a := NodeFaults(3, 1)
	b := a.Union(NodeFaults(1, 7)) // 1 is a duplicate add
	if got := b.Key(); got != "n:1,3,7;e:" {
		t.Errorf("Union key = %q", got)
	}
	// Adding an already-present fault is a no-op on the canonical set.
	c := b.Union(NodeFaults(3))
	if c.Key() != b.Key() {
		t.Errorf("duplicate add changed key: %q != %q", c.Key(), b.Key())
	}
	// Union is order-insensitive.
	x := NodeFaults(5).Union(EdgeFaults(Edge{From: 2, To: 4}))
	y := EdgeFaults(Edge{From: 2, To: 4}).Union(NodeFaults(5))
	if x.Key() != y.Key() {
		t.Errorf("order-sensitive union: %q != %q", x.Key(), y.Key())
	}
	// Empty operands are identities.
	if got := (FaultSet{}).Union(FaultSet{}); !got.IsEmpty() {
		t.Errorf("empty union = %+v", got)
	}
	if got := b.Union(FaultSet{}).Key(); got != b.Key() {
		t.Errorf("union with empty changed key: %q", got)
	}
}

// TestFaultSetLinkThenNodeSameEndpoint adds a link fault and then a node
// fault on one of its endpoints: both must survive as independent faults
// (a node fault does not subsume link faults), and the combined set must
// validate and verify like any other.
func TestFaultSetLinkThenNodeSameEndpoint(t *testing.T) {
	net, err := NewDeBruijn(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	link := Edge{From: 1, To: 3} // 001 → 011
	fs := EdgeFaults(link)
	fs = fs.Union(NodeFaults(1)) // endpoint of the faulty link fails too
	if len(fs.Nodes) != 1 || len(fs.Edges) != 1 {
		t.Fatalf("combined set = %+v, want 1 node + 1 edge", fs)
	}
	if err := fs.Validate(net); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// The reverse order accumulates to the same canonical set.
	rev := NodeFaults(1).Union(EdgeFaults(link))
	if rev.Key() != fs.Key() {
		t.Errorf("link-then-node vs node-then-link: %q != %q", fs.Key(), rev.Key())
	}
	// A ring through node 1 fails on the node fault alone; a ring using
	// the link fails even if node 1 is replaced by a healthy detour.
	ring, _, err := net.EmbedRing(fs)
	if err != nil {
		t.Fatalf("EmbedRing: %v", err)
	}
	if !VerifyRing(net, ring, fs) {
		t.Error("embedded ring fails combined verification")
	}
}

// TestFaultSetMinus checks the new-faults filter of incremental adds.
func TestFaultSetMinus(t *testing.T) {
	have := NodeFaults(1, 2).Union(EdgeFaults(Edge{From: 0, To: 1}))
	add := FaultSet{Nodes: []int{2, 3, 3}, Edges: []Edge{{From: 0, To: 1}, {From: 2, To: 5}}}
	got := add.Minus(have)
	if got.Key() != "n:3;e:2-5" {
		t.Errorf("Minus = %q", got.Key())
	}
	if !have.Minus(have).IsEmpty() {
		t.Error("f.Minus(f) not empty")
	}
	// Minus does not subsume link faults by endpoint node faults.
	keep := EdgeFaults(Edge{From: 1, To: 2}).Minus(NodeFaults(1, 2))
	if len(keep.Edges) != 1 {
		t.Errorf("edge fault subsumed by node faults: %+v", keep)
	}
}

// TestFaultSetKeyStableAcrossAddOrder grows the same fault population in
// many random orders and batch splits; every path must canonicalize to
// one Key.
// TestFaultSetMinusEdgeCases covers the heal-path corners: removing
// faults that are not present, emptying the set entirely, and mixed
// node+link removal in one batch.
func TestFaultSetMinusEdgeCases(t *testing.T) {
	e1 := Edge{From: 0, To: 1}
	e2 := Edge{From: 2, To: 3}
	full := FaultSet{Nodes: []int{4, 7, 9}, Edges: []Edge{e1, e2}}

	// Removing absent faults changes nothing.
	got := full.Minus(FaultSet{Nodes: []int{5, 6}, Edges: []Edge{{From: 9, To: 9}}})
	if got.Key() != full.Canonical().Key() {
		t.Errorf("minus of absent faults changed the set: %s", got.Key())
	}

	// Removing everything (plus extras) empties the set.
	got = full.Minus(FaultSet{Nodes: []int{4, 7, 9, 100}, Edges: []Edge{e1, e2, {From: 8, To: 8}}})
	if !got.IsEmpty() {
		t.Errorf("minus of a superset left %s", got.Key())
	}

	// The empty set minus anything stays empty.
	if got := (FaultSet{}).Minus(full); !got.IsEmpty() {
		t.Errorf("empty minus full = %s", got.Key())
	}

	// Mixed node+link removal in one batch touches both classes
	// independently: healing node 4 does not heal links at node 4.
	mixed := FaultSet{Nodes: []int{4}, Edges: []Edge{{From: 4, To: 8}}}
	base := FaultSet{Nodes: []int{4, 7}, Edges: []Edge{{From: 4, To: 8}, e1}}
	got = base.Minus(FaultSet{Nodes: []int{4}})
	if len(got.Nodes) != 1 || got.Nodes[0] != 7 || len(got.Edges) != 2 {
		t.Errorf("node heal bled into links: %s", got.Key())
	}
	got = base.Minus(mixed)
	if len(got.Nodes) != 1 || got.Nodes[0] != 7 || len(got.Edges) != 1 || got.Edges[0] != e1 {
		t.Errorf("mixed removal = %s", got.Key())
	}

	// Duplicates in the removal batch are harmless.
	got = full.Minus(FaultSet{Nodes: []int{4, 4, 4}})
	if len(got.Nodes) != 2 {
		t.Errorf("duplicate removal = %s", got.Key())
	}

	// Minus is the inverse of Union for disjoint sets.
	add := FaultSet{Nodes: []int{50}, Edges: []Edge{{From: 6, To: 12}}}
	if got := full.Union(add).Minus(add); got.Key() != full.Canonical().Key() {
		t.Errorf("union-then-minus round trip = %s", got.Key())
	}
}

func TestFaultSetKeyStableAcrossAddOrder(t *testing.T) {
	nodes := []int{9, 4, 12, 0, 7}
	edges := []Edge{{From: 1, To: 2}, {From: 2, To: 1}, {From: 0, To: 5}}
	want := FaultSet{Nodes: nodes, Edges: edges}.Canonical().Key()

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(len(nodes))
		acc := FaultSet{}
		for _, i := range perm {
			acc = acc.Union(NodeFaults(nodes[i]))
			if rng.Intn(2) == 0 { // interleave a duplicate add
				acc = acc.Union(NodeFaults(nodes[perm[0]]))
			}
		}
		for _, i := range rng.Perm(len(edges)) {
			acc = acc.Union(EdgeFaults(edges[i]))
		}
		if got := acc.Key(); got != want {
			t.Fatalf("trial %d: key %q, want %q", trial, got, want)
		}
	}
}

// TestFaultSetInputContract pins how Minus, Key and VerifyRing treat
// fault lists straight from outside callers, which may be unsorted and
// repeated, name negative or out-of-range ids (math.MinInt and
// math.MaxInt included: Canonical runs before Validate), and list a link
// fault in the reverse orientation of a ring hop on an undirected net.
func TestFaultSetInputContract(t *testing.T) {
	const lo, hi = math.MinInt, math.MaxInt
	mn, mx := strconv.Itoa(lo), strconv.Itoa(hi)

	for _, c := range []struct {
		f    FaultSet
		want string
	}{
		{FaultSet{}, "n:;e:"},
		{FaultSet{Nodes: []int{5, -3, 5, 2, -3}}, "n:-3,2,5;e:"},
		{FaultSet{Nodes: []int{hi, 0, lo, hi, -1}}, "n:" + mn + ",-1,0," + mx + ";e:"},
		{FaultSet{Edges: []Edge{{hi, lo}, {lo, hi}, {lo, lo}, {hi, lo}, {0, -1}}},
			"n:;e:" + mn + "-" + mn + "," + mn + "-" + mx + ",0--1," + mx + "-" + mn},
		{FaultSet{Edges: []Edge{{2, 1}, {1, 2}, {2, 1}}}, "n:;e:1-2,2-1"},
		{FaultSet{Nodes: []int{hi, lo}, Edges: []Edge{{hi, hi}, {lo, 0}}}, "n:" + mn + "," + mx + ";e:" + mn + "-0," + mx + "-" + mx},
	} {
		if got := c.f.Key(); got != c.want {
			t.Errorf("Key(%+v) = %q, want %q", c.f, got, c.want)
		}
	}

	for _, c := range []struct {
		f, g  FaultSet
		nodes []int
		edges []Edge
	}{
		{FaultSet{Nodes: []int{9, -1, 9, hi, lo, 4}}, FaultSet{Nodes: []int{4, lo, 4, 100, -7}},
			[]int{-1, 9, hi}, nil},
		{FaultSet{Edges: []Edge{{1, 2}, {2, 1}, {hi, lo}, {1, 2}}}, FaultSet{Edges: []Edge{{2, 1}, {hi, lo}, {2, 1}, {-5, -5}}},
			nil, []Edge{{1, 2}}},
		{FaultSet{Nodes: []int{lo, hi}}, FaultSet{Nodes: []int{hi, lo, hi}}, nil, nil},
		{FaultSet{Nodes: []int{3, 1, 3}, Edges: []Edge{{lo, hi}, {hi, lo}}}, FaultSet{},
			[]int{1, 3}, []Edge{{lo, hi}, {hi, lo}}},
		// A reversed link is another fault: Minus keeps the orientation
		// on every net, and node faults subsume no link.
		{FaultSet{Nodes: []int{1}, Edges: []Edge{{1, 2}, {0, 1}}}, FaultSet{Nodes: []int{2, 0}, Edges: []Edge{{2, 1}, {0, 1}}},
			[]int{1}, []Edge{{1, 2}}},
	} {
		got := c.f.Minus(c.g)
		if !slices.Equal(got.Nodes, c.nodes) || !slices.Equal(got.Edges, c.edges) {
			t.Errorf("%+v.Minus(%+v) = %+v, want nodes %v edges %v", c.f, c.g, got, c.nodes, c.edges)
		}
	}

	type verifyCase struct {
		name   string
		faults func(ring []int, size int) FaultSet
		want   bool // on an undirected net; reversed cases flip on a directed one
		flips  bool
	}
	hop := func(ring []int, i int) Edge { return Edge{ring[i], ring[(i+1)%len(ring)]} }
	cases := []verifyCase{
		{"none", func([]int, int) FaultSet { return FaultSet{} }, true, false},
		{"out of range nodes", func(_ []int, size int) FaultSet {
			return NodeFaults(size, -1, hi, lo, size+3, -1, size)
		}, true, false},
		{"many out of range nodes", func(_ []int, size int) FaultSet {
			var f FaultSet
			for i := 0; i < 40; i++ {
				f.Nodes = append(f.Nodes, []int{size + i%7, -1 - i%5, hi - i%3, lo + i%3}[i%4])
			}
			return f
		}, true, false},
		{"ring node among junk", func(ring []int, size int) FaultSet {
			return NodeFaults(hi, ring[3], lo, size, ring[3])
		}, false, false},
		{"forward ring link", func(ring []int, _ int) FaultSet {
			return EdgeFaults(Edge{lo, hi}, hop(ring, 0), hop(ring, 0))
		}, false, false},
		{"reversed ring link", func(ring []int, _ int) FaultSet {
			e := hop(ring, 1)
			return EdgeFaults(Edge{e.To, e.From}, Edge{hi, lo})
		}, false, true},
		{"every ring link reversed", func(ring []int, _ int) FaultSet {
			var f FaultSet
			for i := len(ring) - 1; i >= 0; i-- {
				e := hop(ring, i)
				f.Edges = append(f.Edges, Edge{e.To, e.From})
			}
			return f
		}, false, true},
		{"extreme links", func(_ []int, size int) FaultSet {
			return EdgeFaults(Edge{lo, hi}, Edge{hi, lo}, Edge{-1, 0}, Edge{0, size}, Edge{lo, lo})
		}, true, false},
	}
	nets := []RingEmbedder{}
	for _, mk := range []func() (RingEmbedder, error){
		func() (RingEmbedder, error) { return NewHypercube(3) },          // ring of 8: the small-ring scans
		func() (RingEmbedder, error) { return NewHypercube(7) },          // ring of 128: the marking pass
		func() (RingEmbedder, error) { return NewShuffleExchange(2, 4) }, // its own closed-walk test
		func() (RingEmbedder, error) { return NewDeBruijn(2, 7) },        // directed
	} {
		net, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	for _, net := range nets {
		ring, _, err := net.EmbedRing(FaultSet{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			want := c.want
			if c.flips && !Undirected(net) {
				want = !want
			}
			f := c.faults(ring, net.Nodes())
			if got := VerifyRing(net, ring, f); got != want {
				t.Errorf("%s, %s: VerifyRing = %v, want %v", net.Name(), c.name, got, want)
			}
		}
	}
}

// TestVerifyRingCopiesNoFaultList checks that VerifyRing copies none of
// the lists it is given on a long De Bruijn ring when the link list is
// canonical: the marking pass reads the node faults in any order, as a
// session's fault list arrives, and only a list that a binary search
// reads is ever sorted.
func TestVerifyRingCopiesNoFaultList(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops the pooled marks")
	}
	net, err := NewDeBruijn(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	ring, _, err := net.EmbedRing(FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	// Off-ring ids, unsorted and repeated, and links the ring never takes.
	f := FaultSet{
		Nodes: []int{net.Nodes() + 2, -1, net.Nodes(), -1},
		Edges: []Edge{{-1, 0}, {0, net.Nodes()}},
	}
	if !VerifyRing(net, ring, f) {
		t.Fatal("VerifyRing rejects a ring that avoids every fault")
	}
	if allocs := testing.AllocsPerRun(20, func() { VerifyRing(net, ring, f) }); allocs != 0 {
		t.Errorf("VerifyRing: %v allocs per call, want 0", allocs)
	}
}

// TestNodeFaultBoundCountsNodesOnly checks that NodeFaultBound counts
// distinct faulty nodes in any order and copies nothing when the node
// list is strictly ascending, whatever the order of the links.
func TestNodeFaultBoundCountsNodesOnly(t *testing.T) {
	unsortedLinks := []Edge{{5, 1}, {1, 5}, {5, 1}}
	for _, c := range []struct {
		nodes []int
		want  int
	}{
		{nil, 64},
		{[]int{7, 3, 7, 3, 9}, 64 - 3*6},
		{[]int{3, 3, 7}, 64 - 2*6},
		{[]int{3, 7, 9, 20, 21, 40, 41, 50, 60, 63, 62}, 0},
	} {
		if got := NodeFaultBound(64, 6, FaultSet{Nodes: c.nodes, Edges: unsortedLinks}); got != c.want {
			t.Errorf("NodeFaultBound(64, 6, %v) = %d, want %d", c.nodes, got, c.want)
		}
	}
	f := FaultSet{Nodes: []int{3, 7, 9}, Edges: unsortedLinks}
	if allocs := testing.AllocsPerRun(20, func() { NodeFaultBound(64, 6, f) }); allocs != 0 {
		t.Errorf("NodeFaultBound on ascending nodes: %v allocs per call, want 0", allocs)
	}
}

// faultsFromBytes decodes fuzz input into a raw fault list: the first
// half of data names nodes, the rest pairs into links.  Each byte is a
// small signed id, so lists repeat and overlap, except 0x7f and 0x80,
// which stand for math.MaxInt and math.MinInt.
func faultsFromBytes(data []byte) FaultSet {
	id := func(b byte) int {
		switch b {
		case 0x7f:
			return math.MaxInt
		case 0x80:
			return math.MinInt
		}
		return int(int8(b))
	}
	var f FaultSet
	half := len(data) / 2
	for _, b := range data[:half] {
		f.Nodes = append(f.Nodes, id(b))
	}
	for i := half; i+1 < len(data); i += 2 {
		f.Edges = append(f.Edges, Edge{id(data[i]), id(data[i+1])})
	}
	return f
}

// FuzzFaultSetMembership takes random node and link lists through
// Canonical and holds HasNode, HasEdge, Severs, Minus and Key to map
// references built from the raw lists.
func FuzzFaultSetMembership(f *testing.F) {
	f.Add([]byte{3, 1, 3, 2, 1, 2, 2, 1}, []byte{1, 9, 2, 1})
	f.Add([]byte{0x7f, 0x80, 0x7f, 0x80, 0x7f, 0x80, 0x80, 0x7f}, []byte{0x80, 0, 0x80, 0x7f})
	f.Add([]byte{0xff, 0, 0x7f, 0x80, 0x7f, 0x7f, 0x80, 0x80, 0, 0xff}, []byte{0x7f, 0x80, 0x7f, 0x80, 0x80, 0x7f})
	f.Add([]byte{}, []byte{5, 5, 5, 6, 6, 5})
	f.Fuzz(func(t *testing.T, fb, gb []byte) {
		fs, gs := faultsFromBytes(fb), faultsFromBytes(gb)
		inF, inG := map[int]bool{}, map[int]bool{}
		linkF, linkG := map[Edge]bool{}, map[Edge]bool{}
		for _, v := range fs.Nodes {
			inF[v] = true
		}
		for _, v := range gs.Nodes {
			inG[v] = true
		}
		for _, e := range fs.Edges {
			linkF[e] = true
		}
		for _, e := range gs.Edges {
			linkG[e] = true
		}

		c := fs.Canonical()
		if len(c.Nodes) != len(inF) || len(c.Edges) != len(linkF) ||
			!strictlyAscending(c.Nodes, cmp.Compare[int]) || !strictlyAscending(c.Edges, CompareEdges) {
			t.Fatalf("Canonical(%+v) = %+v: not the sorted distinct faults", fs, c)
		}
		probes := append(append([]int{math.MinInt, math.MinInt + 1, -1, 0, 1, math.MaxInt - 1, math.MaxInt}, fs.Nodes...), gs.Nodes...)
		for _, v := range probes {
			if c.HasNode(v) != inF[v] {
				t.Fatalf("%+v.HasNode(%d) = %v, want %v", c, v, !inF[v], inF[v])
			}
		}
		for _, e := range append(append([]Edge{{math.MinInt, math.MaxInt}, {math.MaxInt, math.MinInt}}, fs.Edges...), gs.Edges...) {
			for _, h := range []Edge{e, {e.To, e.From}, {e.From, e.From}} {
				if c.HasEdge(h.From, h.To) != linkF[h] {
					t.Fatalf("%+v.HasEdge(%d, %d) = %v, want %v", c, h.From, h.To, !linkF[h], linkF[h])
				}
				if got := c.Severs(false, h.From, h.To); got != linkF[h] {
					t.Fatalf("%+v.Severs(directed, %d, %d) = %v, want %v", c, h.From, h.To, got, linkF[h])
				}
				want := linkF[h] || linkF[Edge{h.To, h.From}]
				if got := c.Severs(true, h.From, h.To); got != want {
					t.Fatalf("%+v.Severs(undirected, %d, %d) = %v, want %v", c, h.From, h.To, got, want)
				}
			}
		}

		var want FaultSet
		for _, v := range c.Nodes {
			if !inG[v] {
				want.Nodes = append(want.Nodes, v)
			}
		}
		for _, e := range c.Edges {
			if !linkG[e] {
				want.Edges = append(want.Edges, e)
			}
		}
		for _, got := range []FaultSet{fs.Minus(gs), c.Minus(gs.Canonical()), fs.Minus(gs.Canonical())} {
			if !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Edges, want.Edges) {
				t.Fatalf("%+v.Minus(%+v) = %+v, want %+v", fs, gs, got, want)
			}
		}
		if got, ref := fs.Key(), keyReference(fs); got != ref || c.Key() != ref {
			t.Fatalf("Key(%+v) = %q, canonical %q, reference %q", fs, got, c.Key(), ref)
		}
	})
}
