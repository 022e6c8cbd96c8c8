package topology

import (
	"fmt"
	"sync"
	"sync/atomic"

	"debruijnring/internal/debruijn"
	"debruijnring/internal/ffc"
	"debruijnring/internal/hamilton"
)

// DeBruijn adapts the d-ary De Bruijn network B(d,n) to the Network
// interface.  It embeds rings under node faults (the Chapter 2 FFC
// algorithm), link faults (the Chapter 3 edge-disjoint Hamiltonian
// family machinery), and — best-effort — mixed fault sets.
type DeBruijn struct {
	d, n int
	g    *debruijn.Graph

	// embedders pools dense FFC scratch (ffc.Embedder) across concurrent
	// EmbedRing calls, so the engine's worker loop reuses traversal
	// buffers instead of reallocating them per request.
	embedders sync.Pool

	// embedWorkers is the ffc.Embedder.Workers setting applied to every
	// pooled embedder (0 = GOMAXPROCS, 1 = serial).  Atomic because
	// FromSpec memoizes adapters across goroutines.
	embedWorkers atomic.Int32
}

// NewDeBruijn returns the B(d,n) adapter; d ≥ 2, n ≥ 1.
func NewDeBruijn(d, n int) (*DeBruijn, error) {
	if d < 2 || n < 1 || !powFits(d, n+1, maxWordSize) {
		return nil, fmt.Errorf("topology: invalid De Bruijn dimensions d=%d, n=%d", d, n)
	}
	return &DeBruijn{d: d, n: n, g: debruijn.New(d, n)}, nil
}

// D returns the arity d.
func (t *DeBruijn) D() int { return t.d }

// WordLen returns the word length n.
func (t *DeBruijn) WordLen() int { return t.n }

// Graph exposes the underlying De Bruijn model for callers needing the
// full §3.1 cycle/sequence toolkit.
func (t *DeBruijn) Graph() *debruijn.Graph { return t.g }

// SetEmbedWorkers implements EmbedWorkerSetter: it bounds the frontier
// parallelism of the Step 1.1 broadcast BFS in every embedder this
// adapter pools (0 = GOMAXPROCS, 1 = serial).  Only the full FFC path
// runs that BFS, for fault sets that fault 0ⁿ or cut it off from most
// of the graph; the delta path every other embed takes is serial.  The output is bit-identical for
// every setting; safe to call concurrently with EmbedRing.
func (t *DeBruijn) SetEmbedWorkers(w int) { t.embedWorkers.Store(int32(w)) }

// EmbedWorkers returns the current SetEmbedWorkers setting.
func (t *DeBruijn) EmbedWorkers() int { return int(t.embedWorkers.Load()) }

// Name implements Network.
func (t *DeBruijn) Name() string { return fmt.Sprintf("debruijn(%d,%d)", t.d, t.n) }

// Nodes implements Network.
func (t *DeBruijn) Nodes() int { return t.g.Size }

// Successors implements Network.
func (t *DeBruijn) Successors(x int, dst []int) []int { return t.g.Successors(x, dst) }

// IsEdge implements Network.
func (t *DeBruijn) IsEdge(u, v int) bool { return t.g.IsEdge(u, v) }

// Label implements Network.
func (t *DeBruijn) Label(x int) string { return string(t.AppendLabel(nil, x)) }

// AppendLabel implements Network.
func (t *DeBruijn) AppendLabel(dst []byte, x int) []byte { return t.g.AppendString(dst, x) }

// Parse implements Network.
func (t *DeBruijn) Parse(label string) (int, error) { return t.g.Parse(label) }

// EmbedRing implements RingEmbedder.  Node-only fault sets run the FFC
// algorithm (ring length ≥ dⁿ − nf for f ≤ d−2 faults); edge-only fault
// sets run the Proposition 3.3/3.4 Hamiltonian construction (tolerance
// MAX{ψ(d)−1, φ(d)}).  Mixed sets run FFC on the node faults and fail
// if the resulting ring would traverse a faulty link.
func (t *DeBruijn) EmbedRing(f FaultSet) ([]int, *EmbedInfo, error) {
	if len(f.Nodes) == 0 && len(f.Edges) > 0 {
		// EdgeWindows validates every link itself; skip the redundant
		// FaultSet.Validate pass.
		return t.embedEdgeFaults(f.Edges)
	}
	if err := f.Validate(t); err != nil {
		return nil, nil, err
	}
	em, _ := t.embedders.Get().(*ffc.Embedder)
	if em == nil {
		em = ffc.NewEmbedder(t.g)
	}
	em.Workers = int(t.embedWorkers.Load())
	res, err := em.Embed(f.Nodes)
	t.embedders.Put(em)
	if err != nil {
		return nil, nil, err
	}
	info := &EmbedInfo{
		RingLength: len(res.Cycle),
		LowerBound: nodeFaultBound(t.g.Size, t.n, f),
		Rounds:     res.Eccentricity,
		Survivors:  res.BStarSize,
		Dilation:   1,
	}
	if len(f.Edges) > 0 {
		if !VerifyRing(t, res.Cycle, f) {
			return nil, nil, fmt.Errorf(
				"topology: %s: FFC ring around %d node faults traverses a faulty link (mixed fault sets are best-effort)",
				t.Name(), len(f.Nodes))
		}
	}
	return res.Cycle, info, nil
}

func (t *DeBruijn) embedEdgeFaults(edges []Edge) ([]int, *EmbedInfo, error) {
	windows, err := t.EdgeWindows(edges)
	if err != nil {
		return nil, nil, err
	}
	seq, err := hamilton.FaultFreeHC(t.d, t.n, windows)
	if err != nil {
		return nil, nil, err
	}
	cycle := t.g.NodesOfSequence(seq)
	info := &EmbedInfo{RingLength: len(cycle), Dilation: 1}
	if len(edges) <= hamilton.MaxEdgeFaults(t.d) {
		info.LowerBound = t.g.Size
	}
	return cycle, info, nil
}

// EdgeWindows converts faulty links to the (n+1)-digit windows the §3
// Hamiltonian machinery forbids (each link x₁…xₙ → x₂…xₙα is the window
// x₁…xₙα of the underlying circular sequence).
func (t *DeBruijn) EdgeWindows(edges []Edge) ([][]int, error) {
	windows := make([][]int, 0, len(edges))
	for _, e := range edges {
		if e.From < 0 || e.From >= t.g.Size || e.To < 0 || e.To >= t.g.Size || !t.g.IsEdge(e.From, e.To) {
			return nil, fmt.Errorf("topology: (%d,%d) is not a link of %s", e.From, e.To, t.Name())
		}
		w := make([]int, t.n+1)
		for i := 1; i <= t.n; i++ {
			w[i-1] = t.g.Digit(e.From, i)
		}
		w[t.n] = t.g.Digit(e.To, t.n)
		windows = append(windows, w)
	}
	return windows, nil
}

// DisjointCycles implements CycleFamily: the ψ(d) pairwise edge-disjoint
// Hamiltonian cycles of B(d,n), n ≥ 2.
func (t *DeBruijn) DisjointCycles() ([][]int, error) {
	fam, err := hamilton.DisjointHCs(t.d, t.n)
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(fam.Cycles))
	for i, seq := range fam.Cycles {
		out[i] = t.g.NodesOfSequence(seq)
	}
	return out, nil
}
