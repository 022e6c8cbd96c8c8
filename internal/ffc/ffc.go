// Package ffc implements Chapter 2 of Rowley–Bose: the fault-free cycle
// (FFC) algorithm, which embeds a ring in the d-ary De Bruijn network
// B(d,n) in the presence of node failures.
//
// The algorithm treats a necklace (rotation cycle) as faulty when it
// contains a faulty node, removes the faulty necklaces, and stitches the
// surviving necklaces of the largest remaining component B* into a single
// Hamiltonian cycle of B*.  The stitching is guided by a spanning tree of
// the necklace adjacency graph N* whose same-label edge sets T_w are
// height-one stars (Step 1), each star being closed into a directed cycle
// (Step 2); the ring is then read off by a purely local successor rule
// (Step 3, Proposition 2.1).
//
// The package also provides the constructive fault-free routing paths of
// Proposition 2.2, the worst-case fault family of §2.5, the random-fault
// simulation harness behind Tables 2.1 and 2.2, and a distributed
// implementation of the algorithm (§2.4) on a synchronous message-passing
// network simulator.
//
// # Dense kernels
//
// The embedding and simulation hot paths run on allocation-free dense
// kernels (see PERF.md at the repo root).  An Embedder carries flat
// scratch sized once per graph and shares two per-graph tables: the
// necklace-representative table (debruijn.Graph.NecklaceReps) and the
// fault-free embedding, its base (kept in debruijn.Graph.Memo).  Every
// per-node step is O(1) with no integer division: the faulty-necklace,
// re-levelled, visited and override tests are bit tests, and suffixes
// and rotations divide by dⁿ⁻¹ with a multiply and a shift.
//
// A cold embed is a delta from the base.  Removing necklaces only
// lengthens broadcast distances (the decremental case of Even &
// Shiloach, JACM 1981), and in the base a node's depth is its digit
// count, so the nodes whose depth changes are the alive descendants of
// the faulty nodes in the prefix tree; one BFS through them alone gives
// their new depths.  Step 1.2 is rerun only for the necklaces whose
// representative moved, Step 2 only for the stars whose edge set
// changed, and the Step 3 ring is copied from the base ring run by run
// between the nodes whose successor changed.  When 0ⁿ is faulty or
// stranded, or its component might not be the largest, the embed runs
// the full algorithm instead: because whole necklaces are removed,
// weak and strong connectivity coincide in the surviving graph, so one
// forward level-order BFS per component both labels the components
// and, for the largest, is the Step 1.1 broadcast from R; Step 1.2
// scans only that component's BFS segment, and Step 2 reads each star
// member's w-nodes off its tree edge.  Both paths give the same Result,
// bit for bit, and a warm embed allocates only its Result, whose
// collections are flat slices.
//
// Simulate shards its Monte-Carlo trials across a worker pool; each
// trial draws from an independent PCG stream derived from (seed, fault
// count, trial index) and the per-row statistics merge with
// commutative integer reductions, so tables are bit-identical for a
// fixed seed at any worker count.  The pre-rewrite map-based kernels
// are preserved in legacy_test.go and pinned against the dense ones by
// equivalence tests.
package ffc

import (
	"fmt"
	"sync"

	"debruijnring/internal/debruijn"
)

// Result reports an embedding produced by Embed.  Its collections are
// flat slices in canonical orders, so a Result compares and hashes
// directly.
type Result struct {
	Cycle           []int // Hamiltonian cycle of B*, starting at Root
	Root            int   // the distinguished node R (minimal node of B*)
	BStarSize       int   // |B*|
	Eccentricity    int   // eccentricity of Root in B* (broadcast rounds, Step 1.1)
	FaultyNecklaces []int // representatives of removed necklaces, ascending
	FaultyNodeCount int   // total nodes in faulty necklaces (N_F of §2.5)

	// Tree is the spanning tree T of N* built in Step 1: one edge per
	// non-root necklace of B*, in ascending Child order.
	Tree []TreeLink
	// Overrides is the Step-3 successor rule derived from the modified
	// tree D: for every outgoing node Out, the entry node In of the next
	// necklace on its w-cycle, grouped by star in ascending label order.
	// Nodes without an override follow their necklace successor (left
	// rotation).
	Overrides []Override
}

// TreeEdge is one edge of the necklace spanning tree T as seen from its
// child necklace: the child hangs from Parent with label W (an
// (n−1)-digit code).  It is the value type of child-keyed tree maps.
type TreeEdge struct {
	Parent int // parent necklace representative
	W      int // edge label, an (n−1)-tuple code
}

// TreeLink is one record of Result.Tree: necklace Child hangs from
// Parent with label W.  Node codes are int32 like the dense kernels'
// (every graph they index has fewer than 2³¹ nodes), which halves the
// tree and override records a cold embed hands back.
type TreeLink struct{ Child, Parent, W int32 }

// Override redirects the ring successor of node Out to node In.
type Override struct{ Out, In int32 }

// Embed runs the FFC algorithm on B(d,n) with the given faulty nodes and
// returns the fault-free ring.  It fails only when no nonfaulty necklace
// survives, or when B(d,n) has more than 2³¹ nodes.
//
// Embed draws its Embedder from a pool kept per graph, so repeated calls
// on one graph reuse warm scratch; a caller that wants its own scratch
// (or a Workers setting) constructs an Embedder.
func Embed(g *debruijn.Graph, faults []int) (*Result, error) {
	pool := g.Memo(poolKey{}, func() any { return new(sync.Pool) }).(*sync.Pool)
	em, _ := pool.Get().(*Embedder)
	if em == nil {
		em = NewEmbedder(g)
	}
	res, err := em.Embed(faults)
	pool.Put(em)
	return res, err
}

// poolKey is the debruijn.Graph.Memo key of Embed's embedder pool.
type poolKey struct{}

// FaultyNecklaces returns the set of necklace representatives containing at
// least one of the given faulty nodes.
func FaultyNecklaces(g *debruijn.Graph, faults []int) map[int]bool {
	reps := make(map[int]bool, len(faults))
	for _, f := range faults {
		if f < 0 || f >= g.Size {
			panic(fmt.Sprintf("ffc: fault %d out of range", f))
		}
		reps[g.NecklaceRep(f)] = true
	}
	return reps
}

// SuffixNode returns the unique node of the necklace [rep] whose
// trailing n−1 digits equal w (the outgoing node αw of a star labeled
// w), or −1 if the necklace carries no such window.  Embed reads these
// nodes off its tree edges; the incremental ring repair of
// internal/repair, which re-closes individual stars without rerunning
// the full algorithm, scans for them here.
func SuffixNode(g *debruijn.Graph, rep, w int) int {
	y := rep
	for {
		if g.Suffix(y) == w {
			return y
		}
		y = g.RotL(y)
		if y == rep {
			return -1
		}
	}
}

// PrefixNode returns the unique node of [rep] whose leading n−1 digits
// equal w (the incoming node wβ of a star labeled w), or −1.  See
// SuffixNode.
func PrefixNode(g *debruijn.Graph, rep, w int) int {
	y := rep
	for {
		if g.Prefix(y) == w {
			return y
		}
		y = g.RotL(y)
		if y == rep {
			return -1
		}
	}
}
