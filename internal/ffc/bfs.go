package ffc

import (
	"runtime"
	"sync"

	"debruijnring/internal/debruijn"
	"debruijnring/internal/dense"
)

// survivors is the graph left once the faulty necklaces are removed,
// together with the one level-order BFS that both finds its components
// and broadcasts within them.  Because whole necklaces are removed, weak
// and strong connectivity coincide — every inter-necklace edge αw → wβ
// has a directed return path through the two necklaces via βw → wα — so
// a forward BFS from any surviving node visits exactly that node's
// component.  Labeling the components is therefore the same pass as the
// Step 1.1 broadcast: no separate undirected sweep is needed.
//
// All bookkeeping lives in epoch-stamped dense arrays reset in O(1), so
// a warm survivors value allocates nothing.  It is not safe for
// concurrent use.
type survivors struct {
	g        *debruijn.Graph
	reps     []int32    // necklace representative per node (read-only, may be shared)
	faultRep dense.Set  // faulty necklace representatives
	comp     dense.Ints // component id per visited node
	dist     dense.Ints // BFS depth from the root of the node's component
	order    []int32    // visit order: components back to back, each in level order

	// Per component, indexed by id in discovery order.
	sizes []int32
	roots []int32 // the BFS root; label roots each component at its minimum
	eccs  []int32 // the root's eccentricity within its component

	// workers and threshold set the frontier parallelism of bfs: a level
	// of at least threshold nodes is sharded over workers goroutines
	// when workers > 1.  scanBufs are the per-worker candidate buffers.
	workers   int
	threshold int
	scanBufs  [][]int32
}

// defaultParallelFrontier is the frontier size below which a level is
// scanned inline: sharding a few hundred nodes costs more in goroutine
// handoff than the scan itself, and small instances (every B(d,n) under
// ~64k nodes never grows a frontier this large) stay on the exact serial
// fast path at any Workers setting.
const defaultParallelFrontier = 2048

// setWorkers resolves a Workers setting (0 = GOMAXPROCS, ≤1 = serial)
// and a threshold override (≤0 = defaultParallelFrontier).
func (s *survivors) setWorkers(workers, threshold int) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if threshold <= 0 {
		threshold = defaultParallelFrontier
	}
	s.workers, s.threshold = workers, threshold
}

func (s *survivors) alive(x int) bool { return !s.faultRep.Has(int(s.reps[x])) }

// clear forgets every component found so far.
func (s *survivors) clear() {
	s.comp.Reset(s.g.Size)
	s.dist.Reset(s.g.Size)
	s.order = s.order[:0]
	s.sizes = s.sizes[:0]
	s.roots = s.roots[:0]
	s.eccs = s.eccs[:0]
}

// label finds every component: an ascending scan starts a BFS at each
// surviving node no earlier BFS reached, which is the minimum of its
// component, so ids follow the ascending order of component minima.
func (s *survivors) label() {
	s.clear()
	for x := 0; x < s.g.Size; x++ {
		if s.alive(x) && !s.dist.Has(x) {
			s.visit(x)
		}
	}
}

// largest returns the id of the largest component, ties broken toward
// the smaller id (the smaller minimum); −1 when nothing survives.
func (s *survivors) largest() int32 {
	if len(s.sizes) == 0 {
		return -1
	}
	best := 0
	for id := 1; id < len(s.sizes); id++ {
		if s.sizes[id] > s.sizes[best] {
			best = id
		}
	}
	return int32(best)
}

// visit runs the BFS from root as a new component and returns its id.
func (s *survivors) visit(root int) int32 {
	id := int32(len(s.sizes))
	start := len(s.order)
	ecc := s.bfs(root, id)
	s.sizes = append(s.sizes, int32(len(s.order)-start))
	s.roots = append(s.roots, int32(root))
	s.eccs = append(s.eccs, int32(ecc))
	return id
}

// bfs is the Step 1.1 broadcast: a level-synchronous BFS from root along
// directed edges (successors in digit order, self-loops skipped) through
// surviving nodes no BFS has reached, stamping comp, dist and order.  It
// returns the eccentricity, the depth of the last non-empty level,
// tracked explicitly so no frontier reordering can misreport it.
func (s *survivors) bfs(root int, id int32) int {
	g := s.g
	d := g.D
	s.comp.Set(root, id)
	s.dist.Set(root, 0)
	s.order = append(s.order, int32(root))

	ecc := 0
	for head, depth := len(s.order)-1, 0; head < len(s.order); depth++ {
		levelEnd := len(s.order)
		if s.workers > 1 && levelEnd-head >= s.threshold {
			s.bfsLevel(head, levelEnd, depth, id)
		} else {
			d32 := int32(depth + 1)
			for ; head < levelEnd; head++ {
				v := int(s.order[head])
				base := g.Suffix(v) * d
				for a := 0; a < d; a++ {
					w := base + a
					if w == v || !s.alive(w) || s.dist.Has(w) {
						continue
					}
					s.comp.Set(w, id)
					s.dist.Set(w, d32)
					s.order = append(s.order, int32(w))
				}
			}
		}
		head = levelEnd
		if len(s.order) > levelEnd {
			ecc = depth + 1
		}
	}
	return ecc
}

// bfsLevel shards one BFS level (order[head:levelEnd]) across the worker
// pool.  Each worker scans a contiguous frontier segment and appends
// every surviving, not-yet-stamped successor to its own candidate
// buffer — a read-only pass over faultRep and dist, so the workers never
// race — and a sequential merge then stamps first occurrences in segment
// order.  Concatenating the segment buffers in order replays the exact
// candidate stream the serial loop would see, so comp, dist, order and
// every downstream tie-break are bit-identical at any worker count.
func (s *survivors) bfsLevel(head, levelEnd, depth int, id int32) {
	g := s.g
	d := g.D
	size := levelEnd - head
	nw := s.workers
	if nw > size {
		nw = size
	}
	for len(s.scanBufs) < nw {
		s.scanBufs = append(s.scanBufs, nil)
	}

	var wg sync.WaitGroup
	chunk := (size + nw - 1) / nw
	for wi := 0; wi < nw; wi++ {
		lo := head + wi*chunk
		hi := lo + chunk
		if hi > levelEnd {
			hi = levelEnd
		}
		wg.Add(1)
		go func(wi, lo, hi int) {
			defer wg.Done()
			buf := s.scanBufs[wi][:0]
			for i := lo; i < hi; i++ {
				v := int(s.order[i])
				base := g.Suffix(v) * d
				for a := 0; a < d; a++ {
					w := base + a
					if w == v || !s.alive(w) || s.dist.Has(w) {
						continue
					}
					buf = append(buf, int32(w))
				}
			}
			s.scanBufs[wi] = buf
		}(wi, lo, hi)
	}
	wg.Wait()

	// Sequential merge in segment order: first occurrence wins, exactly
	// as the serial loop's stamp-on-discovery dedup would have chosen.
	d32 := int32(depth + 1)
	for wi := 0; wi < nw; wi++ {
		for _, w32 := range s.scanBufs[wi] {
			if w := int(w32); !s.dist.Has(w) {
				s.comp.Set(w, id)
				s.dist.Set(w, d32)
				s.order = append(s.order, w32)
			}
		}
	}
}
