package debruijnring

import (
	"fmt"

	"debruijnring/internal/debruijn"
	"debruijnring/internal/ffc"
	"debruijnring/topology"
)

// Graph is a d-ary De Bruijn network B(d,n) with dⁿ processors.  It is a
// thin wrapper over the topology.DeBruijn adapter; Network exposes the
// adapter for use with the topology-generic engine and verification
// helpers.
type Graph struct {
	d, n int
	g    *debruijn.Graph
	net  *topology.DeBruijn
}

// New returns B(d,n).  d must be at least 2 and n at least 1.
func New(d, n int) (*Graph, error) {
	net, err := topology.NewDeBruijn(d, n)
	if err != nil {
		return nil, fmt.Errorf("debruijnring: invalid dimensions d=%d, n=%d", d, n)
	}
	return &Graph{d: d, n: n, g: net.Graph(), net: net}, nil
}

// Network returns the topology-generic adapter for this network,
// implementing topology.Network, topology.RingEmbedder and
// topology.CycleFamily.
func (g *Graph) Network() *topology.DeBruijn { return g.net }

// D returns the arity (alphabet size) d.
func (g *Graph) D() int { return g.d }

// N returns the word length n.
func (g *Graph) N() int { return g.n }

// Nodes returns the processor count dⁿ.
func (g *Graph) Nodes() int { return g.g.Size }

// Edges returns the link count d·dⁿ (loops included).
func (g *Graph) Edges() int { return g.g.NumEdges() }

// Node parses a processor label such as "0112" into its node id.
func (g *Graph) Node(label string) (int, error) { return g.g.Parse(label) }

// Label renders a node id as its d-ary word.
func (g *Graph) Label(node int) string { return g.net.Label(node) }

// AppendLabel appends a node's d-ary word to dst.
func (g *Graph) AppendLabel(dst []byte, node int) []byte { return g.net.AppendLabel(dst, node) }

// Neighbors returns the De Bruijn successors of a node.
func (g *Graph) Neighbors(node int) []int {
	return g.g.Successors(node, nil)
}

// Ring is an embedded ring: a cycle of distinct processors in which
// consecutive entries (and the final-to-first pair) are joined by network
// links.  Embedded rings have unit dilation and congestion.
type Ring struct {
	Nodes []int
}

// Len returns the ring length.
func (r *Ring) Len() int { return len(r.Nodes) }

// EmbedStats reports the bookkeeping of a node-fault embedding.
type EmbedStats struct {
	BStarSize           int // processors in the surviving component B*
	FaultyNecklaceNodes int // processors sacrificed with faulty necklaces (≤ nf)
	Eccentricity        int // broadcast rounds from the ring's root (Step 1.1)
	LowerBound          int // dⁿ − nf over the distinct faults, clamped at 0; guaranteed when f ≤ d−2 (Prop 2.2)
}

// EmbedRing finds a ring through every processor of the largest component
// that survives removing the necklaces of the faulty nodes (the FFC
// algorithm of Chapter 2).  With f ≤ d−2 faults the ring is guaranteed to
// have length at least dⁿ − nf.
func (g *Graph) EmbedRing(faults []int) (*Ring, *EmbedStats, error) {
	if err := g.checkNodes(faults); err != nil {
		return nil, nil, err
	}
	res, err := ffc.EmbedCycle(g.g, faults)
	if err != nil {
		return nil, nil, err
	}
	stats := &EmbedStats{
		BStarSize:           res.BStarSize,
		FaultyNecklaceNodes: res.FaultyNodeCount,
		Eccentricity:        res.Eccentricity,
		LowerBound:          topology.NodeFaultBound(g.g.Size, g.n, topology.NodeFaults(faults...)),
	}
	return &Ring{Nodes: res.Cycle}, stats, nil
}

// DistributedStats reports the communication cost of the network-level
// embedding: the paper's complexity measure.
type DistributedStats struct {
	Rounds         int   // total synchronous communication rounds (O(K + n))
	BroadcastRound int   // rounds spent broadcasting (K, the eccentricity)
	Messages       int64 // total messages exchanged
}

// EmbedRingDistributed runs the distributed implementation of the FFC
// algorithm (§2.4) on a simulated synchronous network and returns the same
// ring as EmbedRing together with its communication cost.
func (g *Graph) EmbedRingDistributed(faults []int) (*Ring, *DistributedStats, error) {
	if err := g.checkNodes(faults); err != nil {
		return nil, nil, err
	}
	seq, err := ffc.EmbedCycle(g.g, faults)
	if err != nil {
		return nil, nil, err
	}
	res, err := ffc.EmbedDistributedFrom(g.g, faults, seq.Root)
	if err != nil {
		return nil, nil, err
	}
	stats := &DistributedStats{
		Rounds:         res.Rounds.Total(),
		BroadcastRound: res.Rounds.Broadcast,
		Messages:       res.Messages,
	}
	return &Ring{Nodes: res.Cycle}, stats, nil
}

// RouteAround returns a fault-free path of length at most 2n between two
// processors on nonfaulty necklaces, valid whenever at most d−2 necklaces
// are faulty (Proposition 2.2).
func (g *Graph) RouteAround(from, to int, faults []int) ([]int, error) {
	if err := g.checkNodes(append([]int{from, to}, faults...)); err != nil {
		return nil, err
	}
	return ffc.FaultFreePath(g.g, from, to, ffc.FaultyNecklaces(g.g, faults))
}

// Verify reports whether the ring is a valid cycle of this network that
// avoids the given faulty nodes.  It is the shared topology.VerifyRing
// codepath specialized to node faults.
func (g *Graph) Verify(r *Ring, faults []int) bool {
	return r != nil && topology.VerifyRing(g.net, r.Nodes, topology.NodeFaults(faults...))
}

// EmbedRingFaults embeds a ring around a unified fault set through the
// topology-generic adapter: node-only sets run the Chapter 2 FFC
// algorithm, edge-only sets the Chapter 3 Hamiltonian construction; see
// topology.DeBruijn.EmbedRing for the mixed-set semantics.
func (g *Graph) EmbedRingFaults(f topology.FaultSet) (*Ring, *topology.EmbedInfo, error) {
	cycle, info, err := g.net.EmbedRing(f)
	if err != nil {
		return nil, nil, err
	}
	return &Ring{Nodes: cycle}, info, nil
}

func (g *Graph) checkNodes(nodes []int) error {
	for _, v := range nodes {
		if v < 0 || v >= g.g.Size {
			return fmt.Errorf("debruijnring: node %d out of range [0,%d)", v, g.g.Size)
		}
	}
	return nil
}
