package debruijnring

import (
	"fmt"

	"debruijnring/internal/butterfly"
	"debruijnring/topology"
)

// Butterfly is the d-ary wrapped butterfly network F(d,n) with n·dⁿ
// processors at n levels (§3.4).  Its nodes are coded level·dⁿ + column.
// It is a thin wrapper over the topology.Butterfly adapter.
type Butterfly struct {
	b   *butterfly.Graph
	net *topology.Butterfly
}

// NewButterfly returns F(d,n).
func NewButterfly(d, n int) (*Butterfly, error) {
	net, err := topology.NewButterfly(d, n)
	if err != nil {
		return nil, fmt.Errorf("debruijnring: invalid butterfly dimensions d=%d, n=%d", d, n)
	}
	return &Butterfly{b: net.Graph(), net: net}, nil
}

// Network returns the topology-generic adapter for this network.
func (f *Butterfly) Network() *topology.Butterfly { return f.net }

// Nodes returns the processor count n·dⁿ.
func (f *Butterfly) Nodes() int { return f.b.Size }

// Node codes the processor at the given level and column.
func (f *Butterfly) Node(level, column int) int { return f.b.Node(level, column) }

// Split decodes a processor id into (level, column).
func (f *Butterfly) Split(node int) (level, column int) { return f.b.Split(node) }

// Label renders a processor as "(level,column-word)".
func (f *Butterfly) Label(node int) string { return f.net.Label(node) }

// AppendLabel appends a processor's "(level,column-word)" label to dst.
func (f *Butterfly) AppendLabel(dst []byte, node int) []byte { return f.net.AppendLabel(dst, node) }

// EmbedRingEdgeFaults finds a Hamiltonian ring of F(d,n) avoiding the
// given faulty links, tolerating up to MaxTolerableEdgeFaults(d) failures
// (Proposition 3.5).  Requires gcd(d,n) = 1.
func (f *Butterfly) EmbedRingEdgeFaults(faults []Edge) (*Ring, error) {
	cycle, _, err := f.net.EmbedRing(topology.EdgeFaults(faults...))
	if err != nil {
		return nil, err
	}
	return &Ring{Nodes: cycle}, nil
}

// DisjointHamiltonianCycles returns ψ(d) pairwise edge-disjoint
// Hamiltonian rings of F(d,n) (Proposition 3.6).  Requires gcd(d,n) = 1.
func (f *Butterfly) DisjointHamiltonianCycles() ([]*Ring, error) {
	cycles, err := f.net.DisjointCycles()
	if err != nil {
		return nil, err
	}
	rings := make([]*Ring, len(cycles))
	for i, c := range cycles {
		rings[i] = &Ring{Nodes: c}
	}
	return rings, nil
}

// Verify reports whether the ring is a valid cycle of the butterfly that
// avoids the given faulty links.  It is the shared topology.VerifyRing
// codepath specialized to link faults.
func (f *Butterfly) Verify(r *Ring, faults []Edge) bool {
	return r != nil && topology.VerifyRing(f.net, r.Nodes, topology.EdgeFaults(faults...))
}
