package ffc

import (
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"debruijnring/internal/debruijn"
	"debruijnring/internal/dense"
)

// SimRow is one row of Table 2.1/2.2: statistics, over repeated random
// fault sets of size F, of the size of the component containing the fixed
// source R = 0…01 and of R's eccentricity within it.
type SimRow struct {
	F       int
	AvgSize float64
	MaxSize int
	MinSize int
	Bound   int // dⁿ − nf, the Proposition 2.2 guarantee
	AvgEcc  float64
	MaxEcc  int
	MinEcc  int

	// AvgDeadNodes is the mean number of processors on faulty necklaces.
	// The paper attributes the growing excess of AvgSize over dⁿ − nf to
	// multiple faults landing on one necklace; this column quantifies the
	// attribution: AvgSize ≈ dⁿ − AvgDeadNodes up to a handful of stranded
	// processors.
	AvgDeadNodes float64
}

// DefaultFaultCounts is the fault-count column of Tables 2.1 and 2.2.
var DefaultFaultCounts = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30, 40, 50}

// Simulate reproduces the §2.5.2 experiment on B(d,n): for each fault count
// f, run the given number of trials; in each trial f distinct faulty nodes
// are drawn uniformly, their necklaces removed, and the size of the
// component containing R = 0…01 (or a neighbouring node when R's necklace
// is faulty, as in the paper) and the eccentricity of R in that component
// are recorded.
//
// Trials run across a worker pool sized by GOMAXPROCS; see SimulateWorkers
// for the determinism contract.
func Simulate(d, n int, faultCounts []int, trials int, seed uint64) []SimRow {
	return SimulateWorkers(d, n, faultCounts, trials, seed, 0)
}

// SimulateWorkers is Simulate with an explicit worker count (0 = GOMAXPROCS).
// It panics on a negative trial count or on a fault count outside
// 0..dⁿ: a trial draws that many distinct nodes.
//
// Every trial owns an independent PCG stream derived from (seed, fault
// count, trial index), and the per-fault-count statistics are merged with
// commutative integer reductions, so the output is bit-identical for a
// fixed seed regardless of the worker count or the scheduling of trials
// onto workers.
func SimulateWorkers(d, n int, faultCounts []int, trials int, seed uint64, workers int) []SimRow {
	g := debruijn.New(d, n)
	if trials < 0 {
		panic(fmt.Sprintf("ffc: negative trial count %d", trials))
	}
	for _, f := range faultCounts {
		if f < 0 || f > g.Size {
			panic(fmt.Sprintf("ffc: fault count %d outside 0..%d, the node count of B(%d,%d)", f, g.Size, d, n))
		}
	}
	r := g.Successor(g.Repeat(0), 1) // R = 0…01

	rows := make([]SimRow, len(faultCounts))
	for i, f := range faultCounts {
		rows[i] = SimRow{F: f, MinSize: g.Size + 1, MinEcc: g.Size + 1, Bound: UpperBound(g, f)}
	}
	total := len(faultCounts) * trials
	if total == 0 {
		return rows
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	parts := make([][]simAgg, workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		part := make([]simAgg, len(faultCounts))
		for i := range part {
			part[i].minSize = g.Size + 1
			part[i].minEcc = g.Size + 1
		}
		parts[w] = part
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newSimScratch(g)
			pcg := rand.NewPCG(0, 0)
			rng := rand.New(pcg)
			for {
				j := int(cursor.Add(1)) - 1
				if j >= total {
					return
				}
				fi, ti := j/trials, j%trials
				f := faultCounts[fi]
				pcg.Seed(seed, trialStream(f, ti))
				size, ecc, dead := sc.oneTrial(r, f, rng)
				part[fi].record(size, ecc, dead)
			}
		}()
	}
	wg.Wait()

	for i := range rows {
		a := simAgg{minSize: g.Size + 1, minEcc: g.Size + 1}
		for w := range parts {
			a.merge(parts[w][i])
		}
		rows[i].MaxSize, rows[i].MinSize = a.maxSize, a.minSize
		rows[i].MaxEcc, rows[i].MinEcc = a.maxEcc, a.minEcc
		rows[i].AvgSize = float64(a.sumSize) / float64(trials)
		rows[i].AvgEcc = float64(a.sumEcc) / float64(trials)
		rows[i].AvgDeadNodes = float64(a.sumDead) / float64(trials)
	}
	return rows
}

// simAgg accumulates the order-independent statistics of one table row.
// All reductions (sum, min, max over integers) commute and associate
// exactly, which is what makes sharded simulation bit-reproducible.
type simAgg struct {
	sumSize, sumEcc, sumDead int64
	maxSize, maxEcc          int
	minSize, minEcc          int
}

func (a *simAgg) record(size, ecc, dead int) {
	a.sumSize += int64(size)
	a.sumEcc += int64(ecc)
	a.sumDead += int64(dead)
	if size > a.maxSize {
		a.maxSize = size
	}
	if size < a.minSize {
		a.minSize = size
	}
	if ecc > a.maxEcc {
		a.maxEcc = ecc
	}
	if ecc < a.minEcc {
		a.minEcc = ecc
	}
}

func (a *simAgg) merge(b simAgg) {
	a.sumSize += b.sumSize
	a.sumEcc += b.sumEcc
	a.sumDead += b.sumDead
	if b.maxSize > a.maxSize {
		a.maxSize = b.maxSize
	}
	if b.minSize < a.minSize {
		a.minSize = b.minSize
	}
	if b.maxEcc > a.maxEcc {
		a.maxEcc = b.maxEcc
	}
	if b.minEcc < a.minEcc {
		a.minEcc = b.minEcc
	}
}

// trialStream derives the PCG stream selector for one (fault count, trial)
// pair.  Streams depend only on these values — not on worker assignment —
// so any sharding of trials over workers draws identical fault sets.
func trialStream(f, trial int) uint64 {
	return 0x9e3779b97f4a7c15 ^ splitmix64(uint64(f)<<32^uint64(trial))
}

// splitmix64 is the SplitMix64 finalizer, the standard seed scrambler.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// simScratch carries one worker's reusable trial state: the survivors
// bitsets and epoch-stamped dense sets reset between trials, so a
// trial's only costs are the graph traversals themselves.
type simScratch struct {
	s        survivors // serial: trials, not frontiers, are the parallel unit
	drawn    dense.Set // distinct fault draws
	seen     dense.Set // nearest-component BFS visited
	inComp   dense.Set // members of the component nearestInComponent seeks
	frontier []int32
	next     []int32
}

func newSimScratch(g *debruijn.Graph) *simScratch {
	return &simScratch{s: newSurvivors(g)}
}

// oneTrial removes the necklaces of f random distinct faults and returns
// the size of the source component, the source's eccentricity in it, and
// the number of processors lost with faulty necklaces.
func (sc *simScratch) oneTrial(r, f int, rng *rand.Rand) (size, ecc, dead int) {
	s := &sc.s
	g := s.g

	sc.drawn.Reset(g.Size)
	s.resetFaults()
	for drawn := 0; drawn < f; {
		x := rng.IntN(g.Size)
		if !sc.drawn.Add(x) {
			continue
		}
		drawn++
		dead += s.kill(int(s.reps[x]))
	}

	src := r
	if !s.alive(src) {
		// The paper: "If R was in a faulty necklace, a neighboring node was
		// used instead."  Its tables never record a stranded source, so the
		// replacement is taken as the node of the largest surviving
		// component nearest to R (avoiding, e.g., the single node 0ⁿ that
		// is isolated exactly when N(0…01) itself fails — Proposition 2.3).
		// Only this case needs every component labeled.
		s.label()
		largest := s.largest()
		if largest < 0 {
			return 0, 0, dead
		}
		src = sc.nearestInComponent(r, largest)
		if src < 0 {
			return 0, 0, dead
		}
	}

	// A forward BFS from src visits exactly its component (weak = strong
	// connectivity here), giving both the size and the eccentricity.
	s.clear()
	c := s.comps[s.visit(src)]
	return int(c.size), int(c.ecc), dead
}

// nearestInComponent returns the node of the given component closest to r
// (BFS over both edge directions through the full graph, dead nodes
// included as transit), ties broken toward smaller node values; −1 when the
// component is empty.
func (sc *simScratch) nearestInComponent(r int, id int32) int {
	g := sc.s.g
	d := g.D
	pivot := g.Pow(g.N - 1)
	sc.inComp.Reset(g.Size)
	for _, x := range sc.s.segment(id) {
		sc.inComp.Add(int(x))
	}
	sc.seen.Reset(g.Size)
	sc.seen.Add(r)
	if sc.inComp.Has(r) {
		return r
	}
	sc.frontier = append(sc.frontier[:0], int32(r))
	for len(sc.frontier) > 0 {
		sc.next = sc.next[:0]
		best := -1
		consider := func(w int) {
			if sc.inComp.Has(w) && (best == -1 || w < best) {
				best = w
			}
		}
		for _, v32 := range sc.frontier {
			v := int(v32)
			base := g.Suffix(v) * d
			pre := v / d
			for a := 0; a < d; a++ {
				if w := base + a; sc.seen.Add(w) {
					sc.next = append(sc.next, int32(w))
					consider(w)
				}
			}
			for a := 0; a < d; a++ {
				if w := a*pivot + pre; sc.seen.Add(w) {
					sc.next = append(sc.next, int32(w))
					consider(w)
				}
			}
		}
		if best >= 0 {
			return best
		}
		sc.frontier, sc.next = sc.next, sc.frontier
	}
	return -1
}

// WriteTable renders rows in the layout of Tables 2.1/2.2.
func WriteTable(w io.Writer, d, n int, rows []SimRow) {
	fmt.Fprintf(w, "Component size and eccentricity of R in B(%d,%d) with f random faults\n", d, n)
	fmt.Fprintf(w, "%4s %10s %9s %9s %9s %9s %8s %8s %10s\n",
		"f", "Avg.Size", "Max.Size", "Min.Size", "d^n-nf", "Avg.Ecc", "Max.Ecc", "Min.Ecc", "Avg.Dead")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d %10.2f %9d %9d %9d %9.2f %8d %8d %10.2f\n",
			r.F, r.AvgSize, r.MaxSize, r.MinSize, r.Bound, r.AvgEcc, r.MaxEcc, r.MinEcc, r.AvgDeadNodes)
	}
}
