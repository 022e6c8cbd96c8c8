// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations for the design choices called out in
// DESIGN.md.  Each benchmark exercises exactly the code path that produces
// the corresponding artifact; `go test -bench=. -benchmem` therefore
// doubles as the experiment driver (EXPERIMENTS.md records the outputs).
package debruijnring

import (
	"testing"

	"debruijnring/internal/broadcast"
	"debruijnring/internal/butterfly"
	"debruijnring/internal/debruijn"
	"debruijnring/internal/ffc"
	"debruijnring/internal/hamilton"
	"debruijnring/internal/hypercube"
	"debruijnring/internal/lfsr"
	"debruijnring/internal/necklace"
	"debruijnring/internal/repair"
	"debruijnring/internal/word"
	"debruijnring/obs"
	"debruijnring/topology"
)

// BenchmarkTable21 regenerates a Table 2.1 row set: component size and
// eccentricity statistics in B(2,10) under random faults.
func BenchmarkTable21(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ffc.Simulate(2, 10, []int{1, 5, 10, 50}, 25, uint64(i))
	}
}

// BenchmarkTable22 regenerates a Table 2.2 row set for B(4,5).
func BenchmarkTable22(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ffc.Simulate(4, 5, []int{1, 5, 10, 50}, 25, uint64(i))
	}
}

// BenchmarkTable31 regenerates Table 3.1: ψ(d) for 2 ≤ d ≤ 38.
func BenchmarkTable31(b *testing.B) {
	sink := 0
	for i := 0; i < b.N; i++ {
		for d := 2; d <= 38; d++ {
			sink += hamilton.Psi(d)
		}
	}
	_ = sink
}

// BenchmarkTable32 regenerates Table 3.2: MAX{ψ(d)−1, φ(d)} for 2 ≤ d ≤ 35.
func BenchmarkTable32(b *testing.B) {
	sink := 0
	for i := 0; i < b.N; i++ {
		for d := 2; d <= 35; d++ {
			sink += hamilton.MaxEdgeFaults(d)
		}
	}
	_ = sink
}

// BenchmarkFig11GraphBuild regenerates the Figure 1.1/1.2 structures: the
// graphs B(2,3), B(2,4) and the UB degree census.
func BenchmarkFig11GraphBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, nn := range []int{3, 4} {
			g := debruijn.New(2, nn)
			census := 0
			for x := 0; x < g.Size; x++ {
				census += g.UndirectedDegree(x)
			}
			_ = census
		}
	}
}

// BenchmarkFig23FFC regenerates the Example 2.1 / Figures 2.3–2.4
// instance: the 21-node fault-free cycle of B(3,3) − {020, 112}, including
// the necklace adjacency graph.
func BenchmarkFig23FFC(b *testing.B) {
	g := debruijn.New(3, 3)
	f1, _ := g.Parse("020")
	f2, _ := g.Parse("112")
	faults := []int{f1, f2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ffc.Embed(g, faults)
		if err != nil || len(res.Cycle) != 21 {
			b.Fatal("wrong cycle")
		}
	}
}

// BenchmarkProp22 measures the FFC embedding at the guarantee boundary
// f = d−2 on the 4096-node B(4,6).
func BenchmarkProp22(b *testing.B) {
	g := debruijn.New(4, 6)
	faults := ffc.WorstCaseFaults(g, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ffc.Embed(g, faults)
		if err != nil || len(res.Cycle) < ffc.UpperBound(g, 2) {
			b.Fatal("bound violated")
		}
	}
}

// BenchmarkProp23 measures the binary single-fault embedding in B(2,10).
func BenchmarkProp23(b *testing.B) {
	g := debruijn.New(2, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ffc.Embed(g, []int{i % g.Size})
		if err != nil || len(res.Cycle) < g.Size-(g.N+1) {
			b.Fatal("bound violated")
		}
	}
}

// BenchmarkEmbedParallelSerial and BenchmarkEmbedParallel measure one
// cold FFC embed of the 65536-node B(2,16) — the large-instance class
// the session fleet re-embeds on splice exhaustion — with Workers 1 and
// GOMAXPROCS.  One fault leaves 0ⁿ in B*, so both time the delta path,
// which derives the Result from the graph's fault-free base and is
// serial at any Workers setting: the pair pins that Workers costs the
// delta path nothing.  BenchmarkEmbedFallback prices the full path
// with its frontier-parallel BFS (see PERF.md).
func BenchmarkEmbedParallelSerial(b *testing.B) {
	benchmarkEmbed(b, 1, []int{12345})
}

func BenchmarkEmbedParallel(b *testing.B) {
	benchmarkEmbed(b, 0, []int{12345})
}

// BenchmarkEmbedFallback is one cold embed of B(2,16) on the full path:
// the fault N(0…01) strands 0ⁿ, so the Result cannot be derived from
// the fault-free base, and the component BFS, Step 1.2 scan, star
// closure and walk run over the whole graph, the BFS with GOMAXPROCS
// workers.
func BenchmarkEmbedFallback(b *testing.B) {
	benchmarkEmbed(b, 0, []int{1})
}

func benchmarkEmbed(b *testing.B, workers int, faults []int) {
	g := debruijn.New(2, 16)
	em := ffc.NewEmbedder(g)
	em.Workers = workers
	// Warm the scratch and build the graph's base (one-time costs) so
	// B/op and allocs/op reflect the steady-state embed at the CI job's
	// tiny -benchtime, matching the repair benchmarks below.
	if _, err := em.Embed(faults); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := em.Embed(faults)
		if err != nil || len(res.Cycle) < g.Size-(g.N+1) {
			b.Fatal("bound violated")
		}
	}
}

// BenchmarkRepairUnpatch measures the incremental lifecycle round trip
// on B(2,10): one local fault patch plus one local heal un-patch (the
// session hot path for a fault that is later repaired).  Contrast with
// BenchmarkRepairReembed, the cold path the un-patch replaces.
func BenchmarkRepairUnpatch(b *testing.B) {
	net, err := topology.NewDeBruijn(2, 10)
	if err != nil {
		b.Fatal(err)
	}
	p := repair.For(net)
	ring, _, err := p.Embed(topology.FaultSet{})
	if err != nil {
		b.Fatal(err)
	}
	batch := topology.NodeFaults(ring[100])
	// Warm the patcher's maps to steady state so allocs/op is stable at
	// the CI job's tiny -benchtime.
	for i := 0; i < 3; i++ {
		p.Patch(batch)
		p.Unpatch(batch)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, o := p.Patch(batch); o != repair.Patched {
			b.Fatalf("patch outcome %v", o)
		}
		if _, o := p.Unpatch(batch); o != repair.Readmitted {
			b.Fatalf("unpatch outcome %v", o)
		}
	}
}

// BenchmarkRepairSpliceFallback measures the middle rung of the repair
// ladder on B(2,10): a fault on the distinguished processor — which the
// FFC structural tier always declines — absorbed by the splice tier's
// bypass surgery, plus the splice-tier heal that re-inserts it.  This
// is the path that used to cost a full re-embed round trip
// (BenchmarkRepairReembed) on every FFC-rejected fault set.
func BenchmarkRepairSpliceFallback(b *testing.B) {
	net, err := topology.NewDeBruijn(2, 10)
	if err != nil {
		b.Fatal(err)
	}
	p := repair.For(net)
	ring, _, err := p.Embed(topology.FaultSet{})
	if err != nil {
		b.Fatal(err)
	}
	batch := topology.NodeFaults(ring[0]) // the root: the FFC tier declines it
	// Warm to steady state (the first Patch pays the FFC decline plus
	// the lazy splice-tier sync).
	for i := 0; i < 3; i++ {
		p.Patch(batch)
		p.Unpatch(batch)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, o := p.Patch(batch); o != repair.Spliced {
			b.Fatalf("patch outcome %v", o)
		}
		if _, o := p.Unpatch(batch); o != repair.Spliced {
			b.Fatalf("unpatch outcome %v", o)
		}
	}
}

// BenchmarkRepairHealDenseFaults measures the heal hot path under a
// dense cumulative fault set on B(2,10): eight live node faults, with
// one more faulted and healed per iteration.  Full-heal detection used
// to rescan the whole fault set per healed node (O(|faults|·period));
// the per-necklace live-fault counter makes it O(1).
func BenchmarkRepairHealDenseFaults(b *testing.B) {
	net, err := topology.NewDeBruijn(2, 10)
	if err != nil {
		b.Fatal(err)
	}
	p := repair.For(net)
	ring, _, err := p.Embed(topology.FaultSet{})
	if err != nil {
		b.Fatal(err)
	}
	faults := topology.FaultSet{}
	for i := 1; i <= 8; i++ {
		add := topology.NodeFaults(ring[101*i])
		faults = faults.Union(add)
		if _, o := p.Patch(add); o == repair.Unsupported {
			if ring, _, err = p.Embed(faults); err != nil {
				b.Fatal(err)
			}
		}
	}
	batch := topology.NodeFaults(ring[50])
	for i := 0; i < 3; i++ {
		if _, o := p.Patch(batch); o == repair.Unsupported {
			b.Fatalf("setup patch declined")
		}
		if _, o := p.Unpatch(batch); o == repair.Unsupported {
			b.Fatalf("setup unpatch declined")
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, o := p.Patch(batch); o == repair.Unsupported {
			b.Fatalf("patch outcome %v", o)
		}
		if _, o := p.Unpatch(batch); o == repair.Unsupported {
			b.Fatalf("unpatch outcome %v", o)
		}
	}
}

// BenchmarkRepairReembed measures the cold alternative to the un-patch:
// a full FFC re-embed of B(2,10) around the reduced fault set.
func BenchmarkRepairReembed(b *testing.B) {
	net, err := topology.NewDeBruijn(2, 10)
	if err != nil {
		b.Fatal(err)
	}
	p := repair.For(net)
	if _, _, err := p.Embed(topology.FaultSet{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Embed(topology.FaultSet{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedFFC measures the network-level implementation
// (§2.4) on B(4,5), rounds and all.
func BenchmarkDistributedFFC(b *testing.B) {
	g := debruijn.New(4, 5)
	faults := []int{11, 222}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ffc.EmbedDistributed(g, faults); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHypercubeBaseline regenerates the Chapter 2 comparison: Q_12
// with two faults (4092-node ring) versus B(4,6) with two faults
// (≥ 4084-node ring).
func BenchmarkHypercubeBaseline(b *testing.B) {
	b.Run("Q12", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := hypercube.FaultFreeCycle(12, []int{100, 2000})
			if err != nil || len(c) < 4092 {
				b.Fatal("bound violated")
			}
		}
	})
	b.Run("B46", func(b *testing.B) {
		g := debruijn.New(4, 6)
		for i := 0; i < b.N; i++ {
			res, err := ffc.Embed(g, []int{100, 2000})
			if err != nil || len(res.Cycle) < 4084 {
				b.Fatal("bound violated")
			}
		}
	})
}

// BenchmarkFig32DisjointHCs regenerates the Example 3.3 / Figure 3.2
// object: the 7 pairwise disjoint Hamiltonian cycles of B(13,2).
func BenchmarkFig32DisjointHCs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fam, err := hamilton.DisjointHCs(13, 2)
		if err != nil || len(fam.Cycles) != 7 {
			b.Fatal("wrong family")
		}
	}
}

// BenchmarkFig33MBDecomposition regenerates the Figure 3.3 object: the
// Hamiltonian decomposition of UMB(2,n), at the paper's n = 3 and at a
// larger size.
func BenchmarkFig33MBDecomposition(b *testing.B) {
	b.Run("UMB23", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hamilton.MBDecomposition(2, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("UMB52", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hamilton.MBDecomposition(5, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig34ButterflyEmbed regenerates the §3.4 lift: Hamiltonian
// cycles of the butterfly F(3,4) via Φ (Figure 3.4/3.5 machinery,
// Propositions 3.5/3.6).
func BenchmarkFig34ButterflyEmbed(b *testing.B) {
	g := butterfly.New(3, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles, err := g.DisjointHCs()
		if err != nil || len(cycles) != hamilton.Psi(3) {
			b.Fatal("wrong lift")
		}
	}
}

// BenchmarkProp34EdgeFaults measures fault-free HC construction at the
// full tolerance for a composite arity (d = 12: tolerance 3).
func BenchmarkProp34EdgeFaults(b *testing.B) {
	faults := [][]int{{0, 1, 2}, {3, 2, 1}, {5, 5, 4}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hamilton.FaultFreeHC(12, 2, faults); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCh4Counting regenerates the §4.3 example values and a large
// count (all necklaces of B(2,32)).
func BenchmarkCh4Counting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if necklace.CountAll(2, 12).Int64() != 352 {
			b.Fatal("wrong count")
		}
		if necklace.CountAllByLength(2, 12, 6).Int64() != 9 {
			b.Fatal("wrong count")
		}
		if necklace.CountWeightTotal(2, 12, 4).Int64() != 43 {
			b.Fatal("wrong count")
		}
		necklace.CountAll(2, 32)
	}
}

// BenchmarkAblationFFCVsSearch contrasts the necklace-stitching FFC
// (linear time) against exhaustive longest-cycle search on the same faulty
// instance — the reason the paper's constructive algorithm matters.
func BenchmarkAblationFFCVsSearch(b *testing.B) {
	g := debruijn.New(3, 3)
	// The worst-case single fault 002 (§2.5), for which the optimum is
	// exactly dⁿ − n = 24 — both methods hit it, at very different cost.
	faults := ffc.WorstCaseFaults(g, 1)
	fm := map[int]bool{faults[0]: true}
	b.Run("FFC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ffc.Embed(g, faults); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ExhaustiveSearch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if c := g.LongestCycleAvoiding(fm); len(c) != 24 {
				b.Fatal("wrong length")
			}
		}
	})
}

// BenchmarkAblationHsCache contrasts rebuilding the maximal cycle for each
// H_s against caching it — the reason lfsr.Maximal is a reusable object.
func BenchmarkAblationHsCache(b *testing.B) {
	b.Run("Recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := lfsr.New(13, 2)
			if err != nil {
				b.Fatal(err)
			}
			hamilton.HsCycle(m, 1+i%12, 0)
		}
	})
	b.Run("Cached", func(b *testing.B) {
		m, err := lfsr.New(13, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hamilton.HsCycle(m, 1+i%12, 0)
		}
	})
}

// BenchmarkAblationBroadcastSplit contrasts all-to-all broadcast over one
// ring versus ψ(d) disjoint rings (the Chapter 3 motivation).
func BenchmarkAblationBroadcastSplit(b *testing.B) {
	g := debruijn.New(4, 2)
	fam, err := hamilton.DisjointHCs(4, 2)
	if err != nil {
		b.Fatal(err)
	}
	rings := make([][]int, len(fam.Cycles))
	for i, seq := range fam.Cycles {
		rings[i] = g.NodesOfSequence(seq)
	}
	b.Run("OneRing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := broadcast.Run(g.Size, rings[:1], 12); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ThreeRings", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := broadcast.Run(g.Size, rings, 12); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkObsObserve measures histogram observation — the
// instrumentation cost paid inline on every engine request and repair
// event.  Each iteration records 1000 observations spread across the
// value range, so ns/op ÷ 1000 is the per-observation cost (pinned
// well under 100ns) and allocs/op must stay 0; the inner loop keeps
// the CI job's tiny -benchtime above timer noise.
func BenchmarkObsObserve(b *testing.B) {
	h := &obs.Histogram{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := int64(0); v < 1000; v++ {
			h.Observe(v << uint(v%40))
		}
	}
	if h.Count() != int64(b.N)*1000 {
		b.Fatal("lost observations")
	}
}

// BenchmarkWordKernels measures the integer-coded tuple primitives that
// every algorithm above leans on.
func BenchmarkWordKernels(b *testing.B) {
	s := word.New(4, 10)
	x := 123456
	b.Run("RotL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x = s.RotL(x)
		}
	})
	b.Run("NecklaceRep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = s.NecklaceRep(i % s.Size)
		}
	})
	_ = x
}
