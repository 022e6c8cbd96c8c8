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
	"iter"
	"slices"
	"sync"

	"debruijnring/internal/word"
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

// NodeFaultBound is the paper's dⁿ − nf guarantee on the length of a
// ring that avoids the necklaces of f's faulty nodes, in a network of
// size = dⁿ processors named by n-letter words: a necklace holds at most
// n nodes.  It counts f's distinct faulty nodes (a strictly ascending
// list is counted in place) and is clamped at 0 when the fault load
// makes it vacuous.  It is the one copy of the formula: the De Bruijn and
// shuffle-exchange adapters, the repair ladder (repair.LowerBound) and
// the root API report it.
func NodeFaultBound(size, n int, f FaultSet) int {
	return max(size-n*len(canonicalNodes(f.Nodes)), 0)
}

// RingEmbedder is a Network that can embed a fault-free ring around a
// fault set.  All adapters in this package implement it; unsupported
// fault classes (e.g. node faults in a butterfly) return an error rather
// than panicking, so a single codepath can serve every topology.
type RingEmbedder interface {
	Network
	// EmbedRing returns a ring (cycle, or closed walk for dilation-2
	// embeddings) of the network avoiding every fault in f, together
	// with embedding statistics.  The adapter neither retains nor
	// modifies the ring it returns, so a caller may keep it and share
	// it (the engine caches it and hands it to every later request for
	// the same fault set).
	EmbedRing(f FaultSet) ([]int, *EmbedInfo, error)
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
// test; fault avoidance is always checked by the shared audit in
// VerifyRing.
func IsRing(net Network, cycle []int) bool {
	if cc, ok := net.(cycleChecker); ok {
		return cc.isValidCycle(cycle)
	}
	return isSimpleCycle(net, cycle)
}

func isSimpleCycle(net Network, cycle []int) bool {
	return auditCycle(net, cycle, FaultSet{}, true)
}

// smallCycle is the ring length up to which the audit keeps the nodes it
// has walked in a list it scans, instead of marking them in a set over
// the whole network.
const smallCycle = 64

// ringAudit is the one audit of a ring given as a node sequence:
// VerifyRing feeds it the ring whole, VerifyRuns run by run.  auditRun
// checks each node as it is walked: in range, no more than k walked,
// and, on the generic simple-cycle test, not walked before and reached
// by a link; every hop must also avoid the link faults.  done then
// checks the wrap-around hop the same way, that exactly k ≥ 1 nodes
// were walked, and that no faulty node was: O(k + f) for a ring of k
// nodes and f node faults in any order, plus O(k log e) for e link
// faults.
type ringAudit struct {
	net         Network
	size, k, n  int  // network size, the ring's length, nodes walked
	simple      bool // nodes must be distinct and hops links (no adapter test ran)
	undirected  bool
	links       FaultSet // the link faults, canonical
	first, prev int      // the first node walked, and the last

	// The nodes walked: the first n of small while k ≤ smallCycle, else
	// one bit each in bits, a pooled set cleared per audit.
	small [smallCycle]int
	bits  *[]uint64
}

// markSets pools the audit's node sets: one bit per node, so 8 KiB at
// B(2,16), cleared by each audit that takes one.
var markSets = sync.Pool{New: func() any { return new([]uint64) }}

// start readies a for a ring of k nodes of net around f; simple asks for
// the generic simple-cycle test.  An audit that started must be ended.
func (a *ringAudit) start(net Network, k int, f FaultSet, simple bool) {
	a.net, a.size, a.k, a.n, a.simple = net, net.Nodes(), k, 0, simple
	a.undirected = Undirected(net)
	a.links = FaultSet{Edges: canonicalEdges(f.Edges)}
	if k > smallCycle {
		a.bits = markSets.Get().(*[]uint64)
		words := (a.size + 63) / 64
		if cap(*a.bits) < words {
			*a.bits = make([]uint64, words)
		}
		*a.bits = (*a.bits)[:words]
		clear(*a.bits)
	}
}

// end returns the audit's pooled set.
func (a *ringAudit) end() {
	if a.bits != nil {
		markSets.Put(a.bits)
		a.bits = nil
	}
}

// mark records v as walked and reports whether it was not before.  The
// list keeps every node walked, repeats too, so that small[:n] is
// exactly the walk even on an adapter's closed walk.
func (a *ringAudit) mark(v int) bool {
	if a.bits == nil {
		fresh := !slices.Contains(a.small[:a.n], v)
		a.small[a.n] = v
		return fresh
	}
	w, b := (*a.bits)[v>>6], uint64(1)<<(v&63)
	(*a.bits)[v>>6] = w | b
	return w&b == 0
}

// walked reports whether v was walked.
func (a *ringAudit) walked(v int) bool {
	if a.bits == nil {
		return slices.Contains(a.small[:a.n], v)
	}
	return (*a.bits)[v>>6]&(1<<(v&63)) != 0
}

// hop reports whether the ring may step u→w: a link, on the simple-cycle
// test, that no link fault severs.
func (a *ringAudit) hop(u, w int) bool {
	return (!a.simple || a.net.IsEdge(u, w)) && (len(a.links.Edges) == 0 || !a.links.Severs(a.undirected, u, w))
}

// auditRun walks the next run of a's ring and reports whether it passed.
func auditRun[T int | int32](a *ringAudit, run []T) bool {
	for _, x := range run {
		v := int(x)
		if a.n == a.k || v < 0 || v >= a.size || !a.mark(v) && a.simple {
			return false
		}
		if a.n == 0 {
			a.first = v
		} else if !a.hop(a.prev, v) {
			return false
		}
		a.prev = v
		a.n++
	}
	return true
}

// done reports whether the walked ring, every run of it passed, is
// exactly k ≥ 1 nodes long, closes with a valid wrap-around hop and
// walks no node of f.
func (a *ringAudit) done(f FaultSet) bool {
	if a.n == 0 || a.n != a.k || !a.hop(a.prev, a.first) {
		return false
	}
	for _, v := range f.Nodes {
		if v >= 0 && v < a.size && a.walked(v) {
			return false
		}
	}
	return true
}

// auditCycle runs one ringAudit over cycle whole.
func auditCycle(net Network, cycle []int, f FaultSet, simple bool) bool {
	var a ringAudit
	a.start(net, len(cycle), f, simple)
	defer a.end()
	return auditRun(&a, cycle) && a.done(f)
}

// VerifyRing reports whether cycle is a valid embedded ring of net that
// avoids every fault in f — the single shared implementation of the
// fault-avoidance loops previously duplicated across the De Bruijn,
// edge-fault and butterfly APIs.  An adapter with its own cycle test
// runs it first; then the ring audit (ringAudit) checks, in one pass,
// the generic simple-cycle test where no adapter test ran, and the
// faults: O(k + f) for a ring of k nodes and f node faults, in any
// order, plus O(k log e) for e link faults, with no copy of a link list
// that is canonical already.
func VerifyRing(net Network, cycle []int, f FaultSet) bool {
	cc, custom := net.(cycleChecker)
	if custom && !cc.isValidCycle(cycle) {
		return false
	}
	return auditCycle(net, cycle, f, !custom)
}

// VerifyRuns is VerifyRing for a ring of k nodes read as consecutive
// runs — the pieces of a piece table, say — and audits them in place:
// the ring is checked exactly as VerifyRing checks it whole, its length
// included, without a copy, except on an adapter with its own cycle
// test, which is handed the ring materialized.
func VerifyRuns(net Network, k int, runs iter.Seq[[]int32], f FaultSet) bool {
	if _, custom := net.(cycleChecker); custom {
		cycle := make([]int, 0, k)
		for run := range runs {
			for _, v := range run {
				cycle = append(cycle, int(v))
			}
		}
		return len(cycle) == k && VerifyRing(net, cycle, f)
	}
	var a ringAudit
	a.start(net, k, f, true)
	defer a.end()
	for run := range runs {
		if !auditRun(&a, run) {
			return false
		}
	}
	return a.done(f)
}

// VerifyHamiltonian reports whether cycle is a Hamiltonian ring of net
// avoiding every fault in f.
func VerifyHamiltonian(net Network, cycle []int, f FaultSet) bool {
	return len(cycle) == net.Nodes() && VerifyRing(net, cycle, f)
}

// LabelShape reports whether every label of net is width bytes drawn
// from '0'–'9', 'a'–'z', '{', '|', '}', '~' and DEL: bytes that need no
// escaping in a JSON string.  It holds for the hypercube's bit strings
// and, while the alphabet's digits stay within ASCII
// (word.ASCIIAlphabet), for the De Bruijn, shuffle-exchange and Kautz
// words; a writer of label arrays can then size one from its length
// alone.  Every other network reports ok false.
func LabelShape(net Network) (width int, ok bool) {
	switch t := net.(type) {
	case *DeBruijn:
		return t.n, t.d <= word.ASCIIAlphabet
	case *ShuffleExchange:
		return t.n, t.d <= word.ASCIIAlphabet
	case *Kautz:
		return t.n, t.d+1 <= word.ASCIIAlphabet
	case *Hypercube:
		return t.n, true
	}
	return 0, false
}
