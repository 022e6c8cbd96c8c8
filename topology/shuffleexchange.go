package topology

import (
	"fmt"

	"debruijnring/internal/shuffleexchange"
)

// ShuffleExchange adapts the d-ary shuffle-exchange network SE(d,n) to
// the Network interface.  SE(d,n) shares B(d,n)'s node set; its links
// are the (undirected) shuffle/unshuffle rotations plus the exchange
// links rewriting the last digit.  Ring embeddings carry the Chapter 2
// FFC ring across the shuffle∘exchange factorization with dilation ≤ 2,
// so EmbedRing returns a closed walk rather than a simple cycle.
type ShuffleExchange struct {
	d, n int
	g    *shuffleexchange.Graph
	name string // rendered once: the engine asks for it on every request
}

// NewShuffleExchange returns the SE(d,n) adapter; d ≥ 2, n ≥ 1.
func NewShuffleExchange(d, n int) (*ShuffleExchange, error) {
	if d < 2 || n < 1 || !powFits(d, n+1, maxWordSize) {
		return nil, fmt.Errorf("topology: invalid shuffle-exchange dimensions d=%d, n=%d", d, n)
	}
	return &ShuffleExchange{d: d, n: n, g: shuffleexchange.New(d, n), name: fmt.Sprintf("shuffleexchange(%d,%d)", d, n)}, nil
}

// Name implements Network.
func (t *ShuffleExchange) Name() string { return t.name }

// Nodes implements Network.
func (t *ShuffleExchange) Nodes() int { return t.g.Size }

// Successors implements Network: all SE neighbors (undirected).
func (t *ShuffleExchange) Successors(x int, dst []int) []int { return t.g.Neighbors(x, dst) }

// IsEdge implements Network.
func (t *ShuffleExchange) IsEdge(u, v int) bool {
	if u < 0 || u >= t.g.Size || v < 0 || v >= t.g.Size {
		return false
	}
	return t.g.IsEdge(u, v)
}

// Label implements Network.
func (t *ShuffleExchange) Label(x int) string { return string(t.AppendLabel(nil, x)) }

// AppendLabel implements Network.
func (t *ShuffleExchange) AppendLabel(dst []byte, x int) []byte { return t.g.AppendString(dst, x) }

// Parse implements Network.
func (t *ShuffleExchange) Parse(label string) (int, error) { return t.g.Parse(label) }

// EmbedRing implements RingEmbedder for node faults: the FFC ring of the
// underlying De Bruijn network transferred edge-by-edge, yielding a
// closed walk with dilation ≤ 2 and congestion 1 per directed channel
// that stays clear of faulty necklaces.  Link faults are not supported.
func (t *ShuffleExchange) EmbedRing(f FaultSet) ([]int, *EmbedInfo, error) {
	if len(f.Edges) > 0 {
		return nil, nil, fmt.Errorf("topology: %s does not support link faults", t.Name())
	}
	if err := f.Validate(t); err != nil {
		return nil, nil, err
	}
	ring, walk, err := t.EmbedWalk(f.Nodes)
	if err != nil {
		return nil, nil, err
	}
	dilation := 1
	if len(walk) > len(ring) {
		dilation = 2
	}
	return walk, &EmbedInfo{
		RingLength: len(walk),
		LowerBound: NodeFaultBound(t.g.Size, t.n, f), // dⁿ − nf for the carried ring
		Survivors:  len(ring),
		Dilation:   dilation,
	}, nil
}

// EmbedWalk returns both views of the embedding: the underlying De
// Bruijn ring processors and the SE walk realizing it.
func (t *ShuffleExchange) EmbedWalk(faults []int) (ring, walk []int, err error) {
	emb, err := t.g.EmbedRing(faults)
	if err != nil {
		return nil, nil, err
	}
	return emb.Ring, emb.Walk, nil
}

// undirected marks SE(d,n)'s links as orientation-free for fault checks.
func (t *ShuffleExchange) undirected() {}

// isValidCycle refines the structural test for dilation-2 embeddings:
// the walk is closed and every hop a network link, processors may repeat
// (rotation intermediates lie on the ring), but no directed channel is
// used twice (congestion 1).
func (t *ShuffleExchange) isValidCycle(cycle []int) bool {
	k := len(cycle)
	if k == 0 {
		return false
	}
	used := make(map[Edge]bool, k)
	for i, x := range cycle {
		if x < 0 || x >= t.g.Size {
			return false
		}
		y := cycle[(i+1)%k]
		if !t.g.IsEdge(x, y) {
			return false
		}
		e := Edge{From: x, To: y}
		if used[e] {
			return false
		}
		used[e] = true
	}
	return true
}
