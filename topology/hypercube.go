package topology

import (
	"fmt"
	"slices"
	"strconv"

	"debruijnring/internal/hypercube"
)

// Hypercube adapts the binary n-cube Q_n — the paper's comparison
// baseline — to the Network interface.  Node ids are the 2ⁿ bit strings;
// labels render them MSB-first.  Q_n is undirected: Successors lists all
// n neighbors and IsEdge is symmetric.
type Hypercube struct {
	n    int
	size int
}

// NewHypercube returns the Q_n adapter; n ≥ 2.
func NewHypercube(n int) (*Hypercube, error) {
	if n < 2 || n > 30 {
		return nil, fmt.Errorf("topology: invalid hypercube dimension n=%d", n)
	}
	return &Hypercube{n: n, size: 1 << n}, nil
}

// Dim returns the cube dimension n.
func (t *Hypercube) Dim() int { return t.n }

// Name implements Network.
func (t *Hypercube) Name() string { return fmt.Sprintf("hypercube(%d)", t.n) }

// Nodes implements Network.
func (t *Hypercube) Nodes() int { return t.size }

// Successors implements Network.
func (t *Hypercube) Successors(x int, dst []int) []int {
	dst = dst[:0]
	for j := 0; j < t.n; j++ {
		dst = append(dst, x^(1<<j))
	}
	return dst
}

// IsEdge implements Network.
func (t *Hypercube) IsEdge(u, v int) bool {
	if u < 0 || u >= t.size || v < 0 || v >= t.size {
		return false
	}
	return hypercube.IsEdge(u, v)
}

// Label implements Network: the n-bit binary word, MSB first.
func (t *Hypercube) Label(x int) string { return string(t.AppendLabel(nil, x)) }

// AppendLabel implements Network, peeling bits from the right.
func (t *Hypercube) AppendLabel(dst []byte, x int) []byte {
	start := len(dst)
	dst = slices.Grow(dst, t.n)[:start+t.n]
	for i := len(dst) - 1; i >= start; i-- {
		dst[i] = byte('0' + x&1)
		x >>= 1
	}
	return dst
}

// Parse implements Network.
func (t *Hypercube) Parse(label string) (int, error) {
	if len(label) != t.n {
		return 0, fmt.Errorf("topology: %q has length %d, want %d", label, len(label), t.n)
	}
	v, err := strconv.ParseUint(label, 2, 32)
	if err != nil {
		return 0, fmt.Errorf("topology: %q is not a binary word: %v", label, err)
	}
	return int(v), nil
}

// EmbedRing implements RingEmbedder via the [WC92, CL91a] construction:
// a fault-free cycle of length ≥ 2ⁿ − 2f for f ≤ n−2 faulty processors.
// Link faults are not supported by the baseline.
func (t *Hypercube) EmbedRing(f FaultSet) ([]int, *EmbedInfo, error) {
	if len(f.Edges) > 0 {
		return nil, nil, fmt.Errorf("topology: %s does not support link faults", t.Name())
	}
	if err := f.Validate(t); err != nil {
		return nil, nil, err
	}
	cycle, err := hypercube.FaultFreeCycle(t.n, f.Nodes)
	if err != nil {
		return nil, nil, err
	}
	nf := len(f.Canonical().Nodes)
	return cycle, &EmbedInfo{
		RingLength: len(cycle),
		LowerBound: t.size - 2*nf,
		Survivors:  t.size - nf,
		Dilation:   1,
	}, nil
}

// DisjointCycles implements CycleFamily with the single reflected-Gray
// Hamiltonian cycle (Q_n's analogue of a one-ring family).
func (t *Hypercube) DisjointCycles() ([][]int, error) {
	return [][]int{hypercube.GrayCycle(t.n)}, nil
}

// undirected marks Q_n's links as orientation-free for fault checks.
func (t *Hypercube) undirected() {}

// isValidCycle refines the structural test for the undirected cube:
// Q_n is simple and bipartite, so genuine cycles have length ≥ 4 (a
// 2-entry "cycle" would reuse the same undirected link both ways).
func (t *Hypercube) isValidCycle(cycle []int) bool {
	return len(cycle) >= 4 && isSimpleCycle(t, cycle)
}
