package topology

import (
	"fmt"

	"debruijnring/internal/kautz"
)

// maxKautzSearch bounds the exhaustive Hamiltonian search backing Kautz
// ring embedding (Chapter 5 explores these instances empirically; no
// constructive fault-tolerance theorem is known for K(d,n)).
const maxKautzSearch = 120

// Kautz adapts the Kautz digraph K(d,n) to the Network interface: the
// second bounded-degree family Chapter 5 asks about.  Ring embedding
// under link faults is served by exhaustive search on small instances,
// measuring constructively what the paper leaves open.
type Kautz struct {
	d, n int
	g    *kautz.Graph
	name string // rendered once: the engine asks for it on every request
}

// NewKautz returns the K(d,n) adapter; d ≥ 2, n ≥ 1.
func NewKautz(d, n int) (*Kautz, error) {
	// K(d,n) materializes its (d+1)·dⁿ⁻¹ nodes eagerly, so bound the
	// size before construction.
	if d < 2 || n < 1 || !powFits(d+1, n, maxMaterializedNodes) {
		return nil, fmt.Errorf("topology: invalid Kautz dimensions d=%d, n=%d", d, n)
	}
	return &Kautz{d: d, n: n, g: kautz.New(d, n), name: fmt.Sprintf("kautz(%d,%d)", d, n)}, nil
}

// Name implements Network.
func (t *Kautz) Name() string { return t.name }

// Nodes implements Network.
func (t *Kautz) Nodes() int { return t.g.Size }

// Successors implements Network.
func (t *Kautz) Successors(x int, dst []int) []int { return t.g.Successors(x, dst) }

// IsEdge implements Network.
func (t *Kautz) IsEdge(u, v int) bool {
	if u < 0 || u >= t.g.Size || v < 0 || v >= t.g.Size {
		return false
	}
	return t.g.IsEdge(u, v)
}

// Label implements Network.
func (t *Kautz) Label(x int) string { return string(t.AppendLabel(nil, x)) }

// AppendLabel implements Network.
func (t *Kautz) AppendLabel(dst []byte, x int) []byte { return t.g.AppendString(dst, x) }

// Parse implements Network.
func (t *Kautz) Parse(label string) (int, error) { return t.g.Parse(label) }

// EmbedRing implements RingEmbedder for link faults on small instances
// (≤ 120 nodes): exhaustive Hamiltonian search avoiding the faulty
// links.  Processor faults are not supported — Kautz words do not rotate
// freely, so the necklace machinery of Chapter 2 does not transfer.
func (t *Kautz) EmbedRing(f FaultSet) ([]int, *EmbedInfo, error) {
	if len(f.Nodes) > 0 {
		return nil, nil, fmt.Errorf("topology: %s does not support processor faults", t.Name())
	}
	if t.g.Size > maxKautzSearch {
		return nil, nil, fmt.Errorf("topology: %s too large for exhaustive Kautz embedding (%d > %d nodes)",
			t.Name(), t.g.Size, maxKautzSearch)
	}
	if err := f.Validate(t); err != nil {
		return nil, nil, err
	}
	bad := make(map[[2]int]bool, len(f.Edges))
	for _, e := range f.Edges {
		bad[[2]int{e.From, e.To}] = true
	}
	cycle := t.g.FindHamiltonian(bad)
	if cycle == nil {
		return nil, nil, fmt.Errorf("topology: %s has no Hamiltonian ring avoiding the %d faulty links",
			t.Name(), len(f.Edges))
	}
	return cycle, &EmbedInfo{RingLength: len(cycle), Dilation: 1}, nil
}

// DisjointCycles implements CycleFamily by greedy exhaustive search on
// small instances, answering the Chapter 5 question from below.
func (t *Kautz) DisjointCycles() ([][]int, error) {
	if t.g.Size > maxKautzSearch {
		return nil, fmt.Errorf("topology: %s too large for exhaustive Kautz search", t.Name())
	}
	return t.g.MaxDisjointHCs(), nil
}
