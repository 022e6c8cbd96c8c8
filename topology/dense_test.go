package topology

// Tests pinning the dense-lookup rewrite of the verification and
// cache-key hot paths to the original map/fmt-based semantics.

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// keyReference is the pre-rewrite fmt-based Key implementation.
func keyReference(f FaultSet) string {
	c := f.Canonical()
	var b strings.Builder
	b.WriteString("n:")
	for i, v := range c.Nodes {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteString(";e:")
	for i, e := range c.Edges {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d-%d", e.From, e.To)
	}
	return b.String()
}

func TestKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 7))
	cases := []FaultSet{
		{},
		{Nodes: []int{5}},
		{Nodes: []int{3, 1, 3, 0}},
		{Edges: []Edge{{2, 1}, {0, 9}, {2, 1}}},
		{Nodes: []int{7, 7}, Edges: []Edge{{1, 2}}},
	}
	for i := 0; i < 50; i++ {
		var f FaultSet
		for j := rng.IntN(40); j > 0; j-- {
			f.Nodes = append(f.Nodes, rng.IntN(1000))
		}
		for j := rng.IntN(40); j > 0; j-- {
			f.Edges = append(f.Edges, Edge{rng.IntN(1000), rng.IntN(1000)})
		}
		cases = append(cases, f)
	}
	for _, f := range cases {
		if got, want := f.Key(), keyReference(f); got != want {
			t.Fatalf("Key mismatch for %+v:\n got %q\nwant %q", f, got, want)
		}
	}
}

// verifyRingReference is the pre-rewrite map-based VerifyRing.
func verifyRingReference(net Network, cycle []int, f FaultSet) bool {
	if !IsRing(net, cycle) {
		return false
	}
	badNode := make(map[int]bool, len(f.Nodes))
	for _, v := range f.Nodes {
		badNode[v] = true
	}
	badEdge := make(map[Edge]bool, len(f.Edges))
	for _, e := range f.Edges {
		badEdge[e] = true
	}
	_, undirected := net.(undirectedNetwork)
	k := len(cycle)
	for i, v := range cycle {
		if badNode[v] {
			return false
		}
		if len(badEdge) > 0 {
			w := cycle[(i+1)%k]
			if badEdge[Edge{From: v, To: w}] {
				return false
			}
			if undirected && badEdge[Edge{From: w, To: v}] {
				return false
			}
		}
	}
	return true
}

// TestVerifyRingMatchesReference checks VerifyRing against the map
// implementation on unsorted fault lists of up to 31 nodes and links
// (mostly misses, some out of range), on a ring long enough to trigger
// the dense cycle-dedup path as well.
func TestVerifyRingMatchesReference(t *testing.T) {
	net, err := NewDeBruijn(2, 8) // 256 nodes, ring length > 64
	if err != nil {
		t.Fatal(err)
	}
	ring, _, err := net.EmbedRing(FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 9))
	for trial := 0; trial < 200; trial++ {
		var f FaultSet
		nNodes := rng.IntN(32)
		for j := 0; j < nNodes; j++ {
			// Mostly misses, occasionally out of range.
			f.Nodes = append(f.Nodes, rng.IntN(net.Nodes()+10)-5)
		}
		nEdges := rng.IntN(32)
		for j := 0; j < nEdges; j++ {
			u := rng.IntN(net.Nodes())
			f.Edges = append(f.Edges, Edge{u, (u*2 + rng.IntN(2)) % net.Nodes()})
		}
		cycle := ring
		switch trial % 4 {
		case 1: // corrupt: duplicate node
			cycle = append([]int(nil), ring...)
			cycle[10] = cycle[40]
		case 2: // corrupt: short prefix (not a cycle)
			cycle = ring[:50]
		case 3: // faulty node guaranteed on the ring
			f.Nodes = append(f.Nodes, ring[rng.IntN(len(ring))])
		}
		got := VerifyRing(net, cycle, f)
		want := verifyRingReference(net, cycle, f)
		if got != want {
			t.Fatalf("trial %d: VerifyRing = %v, reference = %v (faults %+v)", trial, got, want, f)
		}
	}
}

func TestVerifyRingLargeFaultSets(t *testing.T) {
	net, err := NewDeBruijn(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	ring, _, err := net.EmbedRing(FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	// Fault every node the fault-free ring misses: there is none.
	var f FaultSet
	for v := 0; v < net.Nodes(); v++ {
		off := false
		for _, x := range ring {
			if x == v {
				off = true
				break
			}
		}
		if !off {
			f.Nodes = append(f.Nodes, v)
		}
	}
	if len(f.Nodes) != 0 {
		t.Fatalf("fault-free embedding missed %d nodes", len(f.Nodes))
	}
	// Large edge set not on the ring: reversed ring edges are absent from
	// the directed De Bruijn ring.
	for i := range ring {
		f.Edges = append(f.Edges, Edge{ring[(i+1)%len(ring)], ring[i]})
	}
	if !VerifyRing(net, ring, f) {
		t.Error("ring rejected although no listed fault lies on it")
	}
	f.Edges = append(f.Edges, Edge{ring[0], ring[1]})
	if VerifyRing(net, ring, f) {
		t.Error("ring accepted although one of its links is faulty")
	}
}

func TestFromSpecMemoizes(t *testing.T) {
	a, err := FromSpec("debruijn(3,5)")
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromSpec(" DeBruijn( 3 , 5 ) ")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("equivalent specs returned distinct instances")
	}
	if _, err := FromSpec("debruijn(0,0)"); err == nil {
		t.Error("invalid spec accepted")
	}
}

// verifyRingPerNode is VerifyRing as it was before the fault check moved
// onto the simple-cycle pass: the structural test, then every ring node
// and hop looked up in the raw fault lists.
func verifyRingPerNode(net Network, cycle []int, f FaultSet) bool {
	if !IsRing(net, cycle) {
		return false
	}
	_, undirected := net.(undirectedNetwork)
	k := len(cycle)
	for i, v := range cycle {
		w := cycle[(i+1)%k]
		if slices.Contains(f.Nodes, v) || slices.Contains(f.Edges, Edge{From: v, To: w}) ||
			undirected && slices.Contains(f.Edges, Edge{From: w, To: v}) {
			return false
		}
	}
	return true
}

// TestVerifyRingMatchesPerNodeScan pins VerifyRing to the per-node scan
// it replaced, on rings longer and shorter than smallCycle and on the
// adapters with their own cycle test: embedded rings, shuffled and
// truncated ones, rings with an out-of-range or a repeated node, and
// fault sets on and off the ring, out of range, repeated, and up to 47
// nodes long.
func TestVerifyRingMatchesPerNodeScan(t *testing.T) {
	var nets []RingEmbedder
	for _, mk := range []func() (RingEmbedder, error){
		func() (RingEmbedder, error) { return NewDeBruijn(2, 8) },
		func() (RingEmbedder, error) { return NewDeBruijn(3, 3) },
		func() (RingEmbedder, error) { return NewHypercube(7) },
		func() (RingEmbedder, error) { return NewShuffleExchange(2, 5) },
	} {
		net, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	rng := rand.New(rand.NewPCG(29, 5))
	agree := map[bool]int{}
	for _, net := range nets {
		ring, _, err := net.EmbedRing(FaultSet{})
		if err != nil {
			t.Fatal(err)
		}
		size := net.Nodes()
		for trial := 0; trial < 400; trial++ {
			cycle := append([]int(nil), ring...)
			switch trial % 6 {
			case 1: // a stretch of the ring, usually not closed
				cycle = cycle[:1+rng.IntN(len(cycle))]
			case 2:
				cycle[rng.IntN(len(cycle))] = size + rng.IntN(3) - 1 // maybe out of range
			case 3:
				cycle[rng.IntN(len(cycle))] = cycle[rng.IntN(len(cycle))] // maybe repeated
			case 4:
				rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
			}
			var f FaultSet
			for j := rng.IntN(48 / (1 + trial%3*4)); j > 0; j-- {
				switch rng.IntN(4) {
				case 0: // on the ring
					f.Nodes = append(f.Nodes, cycle[rng.IntN(len(cycle))])
				case 1: // out of range
					f.Nodes = append(f.Nodes, []int{-1, size, size + 7}[rng.IntN(3)])
				default: // anywhere, sometimes repeated
					f.Nodes = append(f.Nodes, rng.IntN(size))
				}
				if rng.IntN(8) == 0 {
					f.Nodes = append(f.Nodes, f.Nodes[len(f.Nodes)-1])
				}
			}
			if trial%5 == 0 {
				f.Nodes = nil // only off-ring faults, if any
			}
			for j := rng.IntN(4); j > 0; j-- {
				i := rng.IntN(len(cycle))
				f.Edges = append(f.Edges, Edge{cycle[i], cycle[(i+1)%len(cycle)]})
			}
			got, want := VerifyRing(net, cycle, f), verifyRingPerNode(net, cycle, f)
			if got != want {
				t.Fatalf("%s trial %d: VerifyRing = %v, per-node scan = %v (ring of %d, faults %+v)",
					net.Name(), trial, got, want, len(cycle), f)
			}
			agree[got]++
		}
	}
	if agree[true] == 0 || agree[false] == 0 {
		t.Fatalf("every case verified %v: the cases pin nothing", agree[true] > 0)
	}
}
