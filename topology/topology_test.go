package topology

import (
	"slices"
	"strings"
	"testing"
)

func TestFaultSetCanonicalAndKey(t *testing.T) {
	a := FaultSet{
		Nodes: []int{5, 1, 5, 3},
		Edges: []Edge{{From: 2, To: 1}, {From: 0, To: 9}, {From: 2, To: 1}},
	}
	b := FaultSet{
		Nodes: []int{3, 5, 1},
		Edges: []Edge{{From: 0, To: 9}, {From: 2, To: 1}},
	}
	if a.Key() != b.Key() {
		t.Errorf("keys differ for equivalent fault sets: %q vs %q", a.Key(), b.Key())
	}
	c := a.Canonical()
	if len(c.Nodes) != 3 || c.Nodes[0] != 1 || c.Nodes[2] != 5 {
		t.Errorf("canonical nodes = %v", c.Nodes)
	}
	if len(c.Edges) != 2 || c.Edges[0] != (Edge{From: 0, To: 9}) {
		t.Errorf("canonical edges = %v", c.Edges)
	}
	// Canonical must not mutate the receiver.
	if a.Nodes[0] != 5 {
		t.Error("Canonical mutated its receiver")
	}
	empty := FaultSet{}
	if !empty.IsEmpty() || a.IsEmpty() {
		t.Error("IsEmpty wrong")
	}
	if empty.Key() != "n:;e:" {
		t.Errorf("empty key = %q", empty.Key())
	}
	if NodeFaults(1, 2).Key() == EdgeFaults(Edge{From: 1, To: 2}).Key() {
		t.Error("node faults and edge faults must key differently")
	}
}

func TestFaultSetValidate(t *testing.T) {
	net, err := NewDeBruijn(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := NodeFaults(0, 8).Validate(net); err != nil {
		t.Errorf("valid nodes rejected: %v", err)
	}
	if err := NodeFaults(9).Validate(net); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := NodeFaults(-1).Validate(net); err == nil {
		t.Error("negative node accepted")
	}
	// 00 → 01 is a link; 00 → 11 is not.
	if err := EdgeFaults(Edge{From: 0, To: 1}).Validate(net); err != nil {
		t.Errorf("valid link rejected: %v", err)
	}
	if err := EdgeFaults(Edge{From: 0, To: 4}).Validate(net); err == nil {
		t.Error("non-link accepted")
	}
}

func TestNetworkInterfaceBasics(t *testing.T) {
	nets := []struct {
		spec  string
		nodes int
		label string
	}{
		{"debruijn(3,3)", 27, "020"},
		{"kautz(2,3)", 12, "010"},
		{"shuffleexchange(3,3)", 27, "021"},
		{"butterfly(2,3)", 24, "(1,011)"},
		{"hypercube(5)", 32, "01011"},
	}
	for _, tc := range nets {
		net, err := FromSpec(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if net.Nodes() != tc.nodes {
			t.Errorf("%s: %d nodes, want %d", tc.spec, net.Nodes(), tc.nodes)
		}
		if !strings.Contains(tc.spec, net.Name()) && net.Name() != tc.spec {
			t.Errorf("%s: Name() = %q", tc.spec, net.Name())
		}
		// Label/Parse round trip.
		id, err := net.Parse(tc.label)
		if err != nil {
			t.Fatalf("%s: Parse(%q): %v", tc.spec, tc.label, err)
		}
		if got := net.Label(id); got != tc.label {
			t.Errorf("%s: Label(Parse(%q)) = %q", tc.spec, tc.label, got)
		}
		if _, err := net.Parse("definitely-not-a-label"); err == nil {
			t.Errorf("%s: bad label accepted", tc.spec)
		}
		// Every listed successor is an edge; Successors reuses dst.
		var buf []int
		for x := 0; x < net.Nodes(); x += 7 {
			buf = net.Successors(x, buf)
			if len(buf) == 0 {
				t.Fatalf("%s: node %d has no successors", tc.spec, x)
			}
			for _, y := range buf {
				if !net.IsEdge(x, y) {
					t.Fatalf("%s: successor (%d,%d) is not an edge", tc.spec, x, y)
				}
			}
		}
		// IsEdge tolerates out-of-range probes.
		if net.IsEdge(-1, 0) || net.IsEdge(0, net.Nodes()) {
			t.Errorf("%s: out-of-range IsEdge returned true", tc.spec)
		}
	}
}

func TestFromSpecAliasesAndErrors(t *testing.T) {
	for _, spec := range []string{"db(3,3)", "B(3, 3)", " DeBruijn ( 3 , 3 ) "} {
		net, err := FromSpec(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if net.Name() != "debruijn(3,3)" {
			t.Errorf("%q resolved to %s", spec, net.Name())
		}
	}
	for _, spec := range []string{"q(5)", "cube(5)"} {
		net, err := FromSpec(spec)
		if err != nil || net.Name() != "hypercube(5)" {
			t.Errorf("%q: %v, %v", spec, net, err)
		}
	}
	for _, bad := range []string{"", "debruijn", "debruijn(3)", "debruijn(3,3,3)",
		"ring(3,3)", "debruijn(x,3)", "hypercube(1)", "debruijn(1,3)", "kautz(2,3", "hypercube(3,3)"} {
		if _, err := FromSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	// Oversized dimensions — as arriving from untrusted HTTP or batch
	// input — must error, not panic or materialize huge node sets.
	for _, huge := range []string{"debruijn(10,30)", "shuffleexchange(10,30)",
		"butterfly(10,30)", "kautz(9,9)", "hypercube(40)", "debruijn(1000000000,2)"} {
		if _, err := FromSpec(huge); err == nil {
			t.Errorf("oversized spec %q accepted", huge)
		}
	}
}

func TestSharedVerifyRing(t *testing.T) {
	net, _ := NewDeBruijn(3, 3)
	ring, _, err := net.EmbedRing(NodeFaults(6, 14)) // 020 and 112
	if err != nil {
		t.Fatal(err)
	}
	faults := NodeFaults(6, 14)
	if !VerifyRing(net, ring, faults) {
		t.Error("valid ring rejected")
	}
	if VerifyRing(net, nil, faults) || VerifyRing(net, []int{}, faults) {
		t.Error("empty ring accepted")
	}
	// A ring through a faulty node fails.
	if VerifyRing(net, ring, NodeFaults(ring[0])) {
		t.Error("ring through faulty node accepted")
	}
	// A ring using a faulty edge fails.
	if VerifyRing(net, ring, EdgeFaults(Edge{From: ring[0], To: ring[1]})) {
		t.Error("ring using faulty edge accepted")
	}
	// An out-of-range node fails.
	broken := append([]int(nil), ring...)
	broken[3] = net.Nodes()
	if VerifyRing(net, broken, faults) {
		t.Error("out-of-range node accepted")
	}
	// Duplicate node fails.
	dup := append(append([]int(nil), ring...), ring[0])
	if VerifyRing(net, dup, faults) {
		t.Error("duplicated node accepted")
	}
	// Hamiltonian check: the fault-free embedding covers all dⁿ nodes.
	full, _, err := net.EmbedRing(FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyHamiltonian(net, full, FaultSet{}) {
		t.Error("fault-free ring is not Hamiltonian")
	}
	if VerifyHamiltonian(net, ring, faults) {
		t.Error("21-ring of 27-network accepted as Hamiltonian")
	}
}

func TestUndirectedEdgeFaultBothOrientations(t *testing.T) {
	net, _ := NewHypercube(3)
	ring, _, err := net.EmbedRing(FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	// The ring hops ring[0] → ring[1]; failing the same undirected wire
	// named in either orientation must invalidate it.
	forward := EdgeFaults(Edge{From: ring[0], To: ring[1]})
	reverse := EdgeFaults(Edge{From: ring[1], To: ring[0]})
	if VerifyRing(net, ring, forward) {
		t.Error("ring over failed link accepted (forward orientation)")
	}
	if VerifyRing(net, ring, reverse) {
		t.Error("ring over failed undirected link accepted (reverse orientation)")
	}
	// Directed topologies keep orientation: only the traversed direction
	// invalidates.
	db, _ := NewDeBruijn(2, 3)
	dbRing, _, err := db.EmbedRing(FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	if VerifyRing(db, dbRing, EdgeFaults(Edge{From: dbRing[0], To: dbRing[1]})) {
		t.Error("De Bruijn ring over failed link accepted")
	}
	if db.IsEdge(dbRing[1], dbRing[0]) {
		t.Skip("reverse happens to be an edge here; orientation check not meaningful")
	}
}

func TestHypercubeDegenerateCycleRejected(t *testing.T) {
	net, _ := NewHypercube(4)
	// 0-1 is an undirected edge: walking it both ways is not a cycle.
	if VerifyRing(net, []int{0, 1}, FaultSet{}) {
		t.Error("2-entry undirected walk accepted as ring")
	}
	if !VerifyRing(net, []int{0, 1, 3, 2}, FaultSet{}) {
		t.Error("genuine 4-cycle rejected")
	}
}

// TestShuffleExchangeWalkVerification checks a dilation-2 SE walk, then
// audits short SE walks, which repeat nodes, around each single node
// fault: VerifyRing and VerifyRuns (whole and in runs of three) accept
// the walk, which avoids the fault, and reject it once a node it visits
// is faulty too.
func TestShuffleExchangeWalkVerification(t *testing.T) {
	net, _ := NewShuffleExchange(3, 3)
	walk, info, err := net.EmbedRing(NodeFaults(6, 14))
	if err != nil {
		t.Fatal(err)
	}
	if info.Dilation != 2 {
		t.Errorf("dilation = %d, want 2", info.Dilation)
	}
	if info.Survivors != 21 || info.LowerBound != 21 {
		t.Errorf("info = %+v", info)
	}
	if !VerifyRing(net, walk, NodeFaults(6, 14)) {
		t.Error("valid SE walk rejected")
	}
	// Repeating a directed channel is congestion > 1: rejected.
	bad := append(append([]int(nil), walk...), walk...)
	if VerifyRing(net, bad, FaultSet{}) {
		t.Error("doubled walk accepted")
	}

	repeats := 0
	for _, dn := range [][2]int{{2, 4}, {2, 5}, {3, 3}} {
		net, err := NewShuffleExchange(dn[0], dn[1])
		if err != nil {
			t.Fatal(err)
		}
		for v := range net.Nodes() {
			f := NodeFaults(v)
			walk, _, err := net.EmbedRing(f)
			if err != nil {
				continue
			}
			if len(walk) > smallCycle {
				t.Fatalf("%s: walk of %d nodes exceeds the small-ring audit", net.Name(), len(walk))
			}
			if len(slices.Compact(slices.Sorted(slices.Values(walk)))) < len(walk) {
				repeats++
			}
			if slices.Contains(walk, v) {
				t.Fatalf("%s: walk visits its fault %d", net.Name(), v)
			}
			runs := func(yield func([]int32) bool) {
				for i := 0; i < len(walk); i += 3 {
					var run []int32
					for _, x := range walk[i:min(i+3, len(walk))] {
						run = append(run, int32(x))
					}
					if !yield(run) {
						return
					}
				}
			}
			if !VerifyRing(net, walk, f) || !VerifyRuns(net, len(walk), runs, f) {
				t.Errorf("%s: walk avoiding node %d rejected", net.Name(), v)
			}
			g := NodeFaults(v, walk[len(walk)/2])
			if VerifyRing(net, walk, g) || VerifyRuns(net, len(walk), runs, g) {
				t.Errorf("%s: walk through faulty node %d accepted", net.Name(), walk[len(walk)/2])
			}
		}
	}
	if repeats == 0 {
		t.Fatal("no walk repeats a node")
	}
}

func TestDisjointCycleFamilies(t *testing.T) {
	for _, spec := range []string{"debruijn(4,3)", "butterfly(3,2)", "kautz(2,3)", "hypercube(4)"} {
		net, err := FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		fam, ok := net.(CycleFamily)
		if !ok {
			t.Fatalf("%s does not implement CycleFamily", spec)
		}
		cycles, err := fam.DisjointCycles()
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if len(cycles) == 0 {
			t.Fatalf("%s: empty family", spec)
		}
		seen := map[Edge]bool{}
		for _, c := range cycles {
			if !VerifyHamiltonian(net, c, FaultSet{}) {
				t.Fatalf("%s: family member is not a Hamiltonian ring", spec)
			}
			for i, v := range c {
				e := Edge{From: v, To: c[(i+1)%len(c)]}
				if seen[e] {
					t.Fatalf("%s: cycles share edge %v", spec, e)
				}
				seen[e] = true
			}
		}
	}
}

func TestUnsupportedFaultClasses(t *testing.T) {
	bf, _ := NewButterfly(3, 2)
	if _, _, err := bf.EmbedRing(NodeFaults(0)); err == nil {
		t.Error("butterfly accepted processor faults")
	}
	kz, _ := NewKautz(2, 3)
	if _, _, err := kz.EmbedRing(NodeFaults(0)); err == nil {
		t.Error("kautz accepted processor faults")
	}
	hc, _ := NewHypercube(4)
	if _, _, err := hc.EmbedRing(EdgeFaults(Edge{From: 0, To: 1})); err == nil {
		t.Error("hypercube accepted link faults")
	}
	se, _ := NewShuffleExchange(3, 3)
	if _, _, err := se.EmbedRing(EdgeFaults(Edge{From: 0, To: 1})); err == nil {
		t.Error("shuffle-exchange accepted link faults")
	}
	big, _ := NewKautz(3, 5) // 324 nodes: beyond the exhaustive-search bound
	if _, _, err := big.EmbedRing(FaultSet{}); err == nil {
		t.Error("oversized kautz instance accepted")
	}
}

func TestKautzEdgeFaultEmbedding(t *testing.T) {
	net, _ := NewKautz(2, 3)
	full, _, err := net.EmbedRing(FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	faults := EdgeFaults(Edge{From: full[0], To: full[1]})
	ring, info, err := net.EmbedRing(faults)
	if err != nil {
		t.Fatal(err)
	}
	if info.RingLength != net.Nodes() {
		t.Errorf("ring length %d, want Hamiltonian %d", info.RingLength, net.Nodes())
	}
	if !VerifyHamiltonian(net, ring, faults) {
		t.Error("kautz edge-fault ring invalid")
	}
}

func TestNodeFaultBoundDedupAndClamp(t *testing.T) {
	net, _ := NewDeBruijn(3, 3)
	// Duplicated faults must not shrink the reported guarantee.
	_, once, err := net.EmbedRing(NodeFaults(6))
	if err != nil {
		t.Fatal(err)
	}
	_, dup, err := net.EmbedRing(NodeFaults(6, 6, 6))
	if err != nil {
		t.Fatal(err)
	}
	if once.LowerBound != 24 || dup.LowerBound != 24 {
		t.Errorf("bounds = %d, %d; want 24 for one deduplicated fault", once.LowerBound, dup.LowerBound)
	}
	// Overwhelming fault loads clamp to 0 instead of going negative.
	many := make([]int, 0, 12)
	for x := 0; x < 12; x++ {
		many = append(many, x)
	}
	if _, info, err := net.EmbedRing(NodeFaults(many...)); err == nil && info.LowerBound < 0 {
		t.Errorf("negative bound %d", info.LowerBound)
	}
	if b := NodeFaultBound(27, 3, NodeFaults(many...)); b != 0 {
		t.Errorf("vacuous bound = %d, want 0", b)
	}
}

func TestParseFaults(t *testing.T) {
	net, _ := NewDeBruijn(3, 3)
	fs, err := ParseFaults(net, []string{"020", "112"}, [][2]string{{"001", "011"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Nodes) != 2 || fs.Nodes[0] != 6 || len(fs.Edges) != 1 || fs.Edges[0] != (Edge{From: 1, To: 4}) {
		t.Errorf("parsed = %+v", fs)
	}
	if _, err := ParseFaults(net, []string{"999"}, nil); err == nil {
		t.Error("bad node label accepted")
	}
	if _, err := ParseFaults(net, nil, [][2]string{{"001", "zz"}}); err == nil {
		t.Error("bad edge label accepted")
	}
}

func TestDeBruijnMixedFaults(t *testing.T) {
	net, _ := NewDeBruijn(4, 3)
	// Node fault plus a link fault that is incident to the sacrificed
	// necklace: the FFC ring avoids it for free.
	ring, _, err := net.EmbedRing(FaultSet{
		Nodes: []int{net.Graph().Size - 1},                                    // 333
		Edges: []Edge{{From: net.Graph().Size - 1, To: net.Graph().Size - 1}}, // the 333 loop
	})
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyRing(net, ring, FaultSet{Nodes: []int{net.Graph().Size - 1}}) {
		t.Error("mixed-fault ring invalid")
	}
}
