// Package topology defines the topology-generic surface of the
// reproduction: a Network interface abstracting the structural queries
// every fault-tolerant embedding needs (node count, successor iteration,
// label/parse, edge test), a unified FaultSet covering node and link
// failures together, and a single shared verification codepath replacing
// the per-topology Verify loops of the original API.
//
// Five adapters implement the interface — De Bruijn B(d,n), Kautz K(d,n),
// shuffle-exchange SE(d,n), wrapped butterfly F(d,n) and the binary
// hypercube Q_n — so that ring-embedding requests, verification and the
// engine package's caching and batching work identically across all of
// them.  Adapters that know how to embed fault-free rings additionally
// satisfy RingEmbedder; those carrying edge-disjoint Hamiltonian cycle
// families satisfy CycleFamily.
package topology

import (
	"sync"

	"debruijnring/internal/dense"
)

// Network is a processor interconnection topology.  Implementations are
// immutable after construction and safe for concurrent use.
type Network interface {
	// Name identifies the topology instance, e.g. "debruijn(3,3)".  It is
	// stable across processes and usable as a cache-key component.
	Name() string
	// Nodes returns the processor count; node ids are 0 … Nodes()−1.
	Nodes() int
	// Successors appends the out-neighbors of x to dst (reusing its
	// backing array) and returns the slice.  Undirected topologies list
	// every neighbor.
	Successors(x int, dst []int) []int
	// IsEdge reports whether (u, v) is a network link.
	IsEdge(u, v int) bool
	// Label renders a node id as its human-readable processor label;
	// it is string(AppendLabel(nil, x)).
	Label(x int) string
	// AppendLabel appends the label of x to dst and returns the
	// extended slice, allocating only when dst lacks the room.
	AppendLabel(dst []byte, x int) []byte
	// Parse is the inverse of Label.
	Parse(label string) (int, error)
}

// EmbedInfo reports the bookkeeping of a ring embedding, normalized
// across topologies.  Fields that a topology cannot populate are zero.
type EmbedInfo struct {
	// RingLength is len of the returned ring.  For unit-dilation
	// embeddings that is the processor count; for dilation-2 closed
	// walks (shuffle-exchange) it counts walk hops and can exceed the
	// network size — Survivors then holds the carried processor count.
	RingLength int
	// LowerBound is the guaranteed minimum ring length for a successful
	// embedding under this (deduplicated) fault load — dⁿ − nf for De
	// Bruijn node faults, the network size for within-tolerance link
	// faults.  0 when no bound applies or the fault load makes it
	// vacuous.
	LowerBound int
	Rounds     int // broadcast rounds / eccentricity of the construction, where meaningful
	Survivors  int // processors in the surviving component the ring covers, where meaningful
	Dilation   int // longest network path realizing one ring hop (≥ 1)
}

// nodeFaultBound returns the dⁿ − nf guarantee on the length of a
// successful necklace-removal embedding (every faulty necklace has at
// most n nodes), computed from the deduplicated fault count and clamped
// at 0 when the fault load makes it vacuous.
func nodeFaultBound(size, n int, f FaultSet) int {
	b := size - n*len(f.Canonical().Nodes)
	if b < 0 {
		return 0
	}
	return b
}

// RingEmbedder is a Network that can embed a fault-free ring around a
// fault set.  All adapters in this package implement it; unsupported
// fault classes (e.g. node faults in a butterfly) return an error rather
// than panicking, so a single codepath can serve every topology.
type RingEmbedder interface {
	Network
	// EmbedRing returns a ring (cycle, or closed walk for dilation-2
	// embeddings) of the network avoiding every fault in f, together
	// with embedding statistics.
	EmbedRing(f FaultSet) ([]int, *EmbedInfo, error)
}

// EmbedWorkerSetter is implemented by adapters whose EmbedRing can
// shard work across a worker pool without changing its output (the
// De Bruijn FFC broadcast).  0 means GOMAXPROCS, 1 serial; engines
// apply their configured worker count through this interface and
// adapters without internal parallelism simply don't implement it.
type EmbedWorkerSetter interface {
	SetEmbedWorkers(workers int)
}

// CycleFamily is a Network carrying a family of pairwise edge-disjoint
// Hamiltonian cycles.
type CycleFamily interface {
	Network
	// DisjointCycles returns pairwise edge-disjoint Hamiltonian cycles.
	DisjointCycles() ([][]int, error)
}

// undirectedNetwork marks adapters whose links are undirected: a faulty
// link blocks traffic in both orientations.
type undirectedNetwork interface {
	undirected()
}

// Undirected reports whether net's links are undirected, i.e. a faulty
// link blocks traffic in both orientations.  Repair and verification
// codepaths use it to decide which ring hops a link fault severs.
func Undirected(net Network) bool {
	_, ok := net.(undirectedNetwork)
	return ok
}

// cycleChecker lets an adapter refine the generic structural cycle test,
// e.g. to admit the dilation-2 closed walks of shuffle-exchange
// embeddings or to reject the degenerate 2-cycles of undirected graphs.
type cycleChecker interface {
	isValidCycle(cycle []int) bool
}

// IsRing reports whether cycle is a valid embedded ring of net: nonempty,
// nodes in range and pairwise distinct, every consecutive pair (including
// the wrap-around) a network link.  Adapters with a refined notion of
// ring (closed walks, undirected degeneracies) override the structural
// test; fault avoidance is always checked by the shared loop in
// VerifyRing.
func IsRing(net Network, cycle []int) bool {
	if cc, ok := net.(cycleChecker); ok {
		return cc.isValidCycle(cycle)
	}
	return isSimpleCycle(net, cycle)
}

func isSimpleCycle(net Network, cycle []int) bool {
	k := len(cycle)
	if k == 0 {
		return false
	}
	size := net.Nodes()
	if k <= 64 {
		// Small rings: a quadratic scan avoids touching scratch at all.
		for i, x := range cycle {
			if x < 0 || x >= size {
				return false
			}
			for _, y := range cycle[:i] {
				if y == x {
					return false
				}
			}
			if !net.IsEdge(x, cycle[(i+1)%k]) {
				return false
			}
		}
		return true
	}
	seen := getScratchSet(size)
	defer putScratchSet(seen)
	for i, x := range cycle {
		if x < 0 || x >= size || !seen.Add(x) {
			return false
		}
		if !net.IsEdge(x, cycle[(i+1)%k]) {
			return false
		}
	}
	return true
}

// scratchSets pools the epoch-stamped node sets behind verification so a
// steady request stream stops allocating O(size) bookkeeping per call —
// a pooled set's O(1) epoch reset replaces the per-call map of the
// original implementation.
var scratchSets = sync.Pool{New: func() any { return new(dense.Set) }}

func getScratchSet(size int) *dense.Set {
	s := scratchSets.Get().(*dense.Set)
	s.Reset(size)
	return s
}

func putScratchSet(s *dense.Set) { scratchSets.Put(s) }

// VerifyRing reports whether cycle is a valid embedded ring of net that
// avoids every fault in f — the single shared implementation of the
// fault-avoidance loops previously duplicated across the De Bruijn,
// edge-fault and butterfly APIs.  Fault membership runs on dense lookups
// with a small-set fallback instead of per-call maps.
func VerifyRing(net Network, cycle []int, f FaultSet) bool {
	if !IsRing(net, cycle) {
		return false
	}
	badNode := makeNodeLookup(f.Nodes, net.Nodes())
	defer badNode.release()
	badEdge := makeEdgeLookup(f.Edges)
	_, undirected := net.(undirectedNetwork)
	k := len(cycle)
	for i, v := range cycle {
		if badNode.has(v) {
			return false
		}
		if len(f.Edges) > 0 {
			w := cycle[(i+1)%k]
			if badEdge.has(Edge{From: v, To: w}) {
				return false
			}
			// On undirected topologies the failed wire blocks both
			// orientations.
			if undirected && badEdge.has(Edge{From: w, To: v}) {
				return false
			}
		}
	}
	return true
}

// VerifyHamiltonian reports whether cycle is a Hamiltonian ring of net
// avoiding every fault in f.
func VerifyHamiltonian(net Network, cycle []int, f FaultSet) bool {
	return len(cycle) == net.Nodes() && VerifyRing(net, cycle, f)
}
