package topology

import (
	"fmt"
	"strconv"
	"strings"

	"debruijnring/internal/butterfly"
	"debruijnring/internal/hamilton"
	"debruijnring/internal/numtheory"
)

// Butterfly adapts the d-ary wrapped butterfly network F(d,n) (§3.4) to
// the Network interface.  Nodes are (level, column) pairs coded
// level·dⁿ + column and labeled "(level,column-word)".
type Butterfly struct {
	d, n int
	b    *butterfly.Graph
}

// NewButterfly returns the F(d,n) adapter; d ≥ 2, n ≥ 1.
func NewButterfly(d, n int) (*Butterfly, error) {
	if d < 2 || n < 1 || !powFits(d, n+1, maxWordSize) {
		return nil, fmt.Errorf("topology: invalid butterfly dimensions d=%d, n=%d", d, n)
	}
	return &Butterfly{d: d, n: n, b: butterfly.New(d, n)}, nil
}

// Graph exposes the underlying butterfly model.
func (t *Butterfly) Graph() *butterfly.Graph { return t.b }

// Name implements Network.
func (t *Butterfly) Name() string { return fmt.Sprintf("butterfly(%d,%d)", t.d, t.n) }

// Nodes implements Network.
func (t *Butterfly) Nodes() int { return t.b.Size }

// Successors implements Network.
func (t *Butterfly) Successors(x int, dst []int) []int { return t.b.Successors(x, dst) }

// IsEdge implements Network.
func (t *Butterfly) IsEdge(u, v int) bool {
	if u < 0 || u >= t.b.Size || v < 0 || v >= t.b.Size {
		return false
	}
	return t.b.IsEdge(u, v)
}

// Label implements Network.
func (t *Butterfly) Label(x int) string { return string(t.AppendLabel(nil, x)) }

// AppendLabel implements Network.
func (t *Butterfly) AppendLabel(dst []byte, x int) []byte { return t.b.AppendString(dst, x) }

// Parse implements Network: the inverse of Label, accepting
// "(level,word)" with or without the parentheses.
func (t *Butterfly) Parse(label string) (int, error) {
	s := strings.TrimSuffix(strings.TrimPrefix(label, "("), ")")
	level, word, ok := strings.Cut(s, ",")
	if !ok {
		return 0, fmt.Errorf("topology: bad butterfly label %q (want \"(level,word)\")", label)
	}
	k, err := strconv.Atoi(level)
	if err != nil || k < 0 || k >= t.n {
		return 0, fmt.Errorf("topology: bad butterfly level in %q", label)
	}
	col, err := t.b.Cols.Parse(word)
	if err != nil {
		return 0, err
	}
	return t.b.Node(k, col), nil
}

// EmbedRing implements RingEmbedder for link faults: the Proposition 3.5
// construction projects the faults to De Bruijn links, embeds a
// Hamiltonian cycle avoiding them and lifts it with the Φ map, tolerating
// MAX{ψ(d)−1, φ(d)} failures when gcd(d,n) = 1.  Processor faults are
// not supported (the paper's butterfly results are edge-fault only).
func (t *Butterfly) EmbedRing(f FaultSet) ([]int, *EmbedInfo, error) {
	if len(f.Nodes) > 0 {
		return nil, nil, fmt.Errorf("topology: %s does not support processor faults", t.Name())
	}
	if err := f.Validate(t); err != nil {
		return nil, nil, err
	}
	pairs := make([][2]int, len(f.Edges))
	for i, e := range f.Edges {
		pairs[i] = [2]int{e.From, e.To}
	}
	cycle, err := t.b.FaultFreeHC(pairs)
	if err != nil {
		return nil, nil, err
	}
	info := &EmbedInfo{RingLength: len(cycle), Dilation: 1}
	if len(f.Edges) <= hamilton.MaxEdgeFaults(t.d) {
		info.LowerBound = t.b.Size
	}
	return cycle, info, nil
}

// DisjointCycles implements CycleFamily: ψ(d) pairwise edge-disjoint
// Hamiltonian cycles of F(d,n) (Proposition 3.6), requiring gcd(d,n) = 1.
func (t *Butterfly) DisjointCycles() ([][]int, error) {
	return t.b.DisjointHCs()
}

// SupportsLift reports whether the Φ-map constructions apply
// (gcd(d,n) = 1).
func (t *Butterfly) SupportsLift() bool { return numtheory.GCD(t.d, t.n) == 1 }
