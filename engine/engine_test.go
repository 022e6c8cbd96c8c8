package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"debruijnring/topology"
)

func TestEmbedRingCacheHit(t *testing.T) {
	eng := New(Options{})
	ctx := context.Background()
	req := Request{Spec: "debruijn(3,3)", Faults: topology.NodeFaults(6, 14)}

	first, err := eng.EmbedRing(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CacheHit {
		t.Error("first request reported a cache hit")
	}
	if first.Stats.RingLength != 21 || first.Stats.LowerBound != 21 {
		t.Errorf("stats = %+v", first.Stats)
	}

	// Same fault set, different order and duplicated entry: still a hit.
	second, err := eng.EmbedRing(ctx, Request{
		Spec: "debruijn(3,3)", Faults: topology.NodeFaults(14, 6, 14),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.CacheHit {
		t.Error("repeat request missed the cache")
	}
	if len(second.Ring) != len(first.Ring) {
		t.Errorf("cached ring length %d vs %d", len(second.Ring), len(first.Ring))
	}
	cs := eng.CacheStats()
	if cs.Hits != 1 || cs.Misses != 1 || cs.Entries != 1 {
		t.Errorf("cache stats = %+v", cs)
	}

	// The engine copies no ring: a hit hands out the miss's own
	// backing array, read-only and shared.
	if &second.Ring[0] != &first.Ring[0] {
		t.Error("cache hit copied the ring")
	}
}

// TestEmbedRingSharesRing pins the Result.Ring contract on B(2,16): an
// in-flight waiter and a later hit return the miss's backing array, a
// hit allocates a small constant with no dⁿ-sized copy, and concurrent
// readers of the one shared ring are race-free.
func TestEmbedRingSharesRing(t *testing.T) {
	db, err := topology.NewDeBruijn(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	blocker := &blockingNet{RingEmbedder: db, started: make(chan struct{}), release: make(chan struct{})}
	eng := New(Options{})
	ctx := context.Background()
	faults := topology.NodeFaults(5, 1234, 40000)
	req := Request{Network: blocker, Faults: faults}

	missc, waitc := make(chan *Result, 1), make(chan *Result, 1)
	embed := func(out chan<- *Result) {
		res, err := eng.EmbedRing(ctx, req)
		if err != nil {
			t.Error(err)
		}
		out <- res
	}
	go embed(missc)
	<-blocker.started
	go embed(waitc)
	// The embed stays blocked while the waiter finds its flight; one
	// scheduled late finds the cache instead, and must share just as well.
	time.Sleep(20 * time.Millisecond)
	close(blocker.release)
	miss, waiter := <-missc, <-waitc
	if miss == nil || waiter == nil {
		t.FailNow()
	}
	if miss.Stats.CacheHit || !waiter.Stats.CacheHit {
		t.Fatalf("miss hit=%v, waiter hit=%v", miss.Stats.CacheHit, waiter.Stats.CacheHit)
	}
	if &waiter.Ring[0] != &miss.Ring[0] {
		t.Error("in-flight waiter got a copy of the ring")
	}

	hitReq := Request{Network: db, Faults: faults} // the blocker's key: same name, same faults
	hit, err := eng.EmbedRing(ctx, hitReq)
	if err != nil || !hit.Stats.CacheHit {
		t.Fatalf("hit: %v, %+v", err, hit)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := eng.EmbedRing(ctx, hitReq); err != nil {
			t.Fatal(err)
		}
	})
	// The canonical fault set, its key (a buffer and a string), the cache
	// key and the Result: the topology's name is rendered once, at
	// construction.
	if allocs > 5 {
		t.Errorf("a B(2,16) cache hit made %v allocations, want at most 5", allocs)
	}
	const hits = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		eng.EmbedRing(ctx, hitReq)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / hits; per > 272 {
		t.Errorf("a B(2,16) cache hit allocated %d bytes, want at most 272 (the ring is %d KiB)", per, 8*len(hit.Ring)>>10)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.EmbedRing(ctx, hitReq)
			if err != nil {
				t.Error(err)
				return
			}
			if &res.Ring[0] != &hit.Ring[0] || !topology.VerifyRing(db, res.Ring, faults) {
				t.Error("a concurrent reader saw another or a broken ring")
			}
		}()
	}
	wg.Wait()
}

func TestEmbedRingDifferentTopologiesDoNotCollide(t *testing.T) {
	eng := New(Options{})
	ctx := context.Background()
	// Same (empty) fault set on two topologies: two distinct entries.
	a, err := eng.EmbedRing(ctx, Request{Spec: "debruijn(2,3)"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.EmbedRing(ctx, Request{Spec: "kautz(2,3)"})
	if err != nil {
		t.Fatal(err)
	}
	if b.Stats.CacheHit {
		t.Error("different topology hit the cache")
	}
	if a.Stats.Topology == b.Stats.Topology {
		t.Error("stats confuse topologies")
	}
}

func TestEmbedBatchOrderingAndCrossTopology(t *testing.T) {
	eng := New(Options{Workers: 4})
	reqs := []Request{
		{Spec: "debruijn(3,3)", Faults: topology.NodeFaults(6)},
		{Spec: "hypercube(6)", Faults: topology.NodeFaults(7)},
		{Spec: "shuffleexchange(3,3)", Faults: topology.NodeFaults(6)},
		{Spec: "debruijn(4,2)"},
		{Spec: "nonsense(1,2)"},
	}
	results := eng.EmbedBatch(context.Background(), reqs)
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	wantTopology := []string{"debruijn(3,3)", "hypercube(6)", "shuffleexchange(3,3)", "debruijn(4,2)"}
	for i, want := range wantTopology {
		if results[i].Err != nil {
			t.Fatalf("request %d: %v", i, results[i].Err)
		}
		if results[i].Stats.Topology != want {
			t.Errorf("result %d is %s, want %s (ordering broken)", i, results[i].Stats.Topology, want)
		}
	}
	if results[4].Err == nil {
		t.Error("bad spec did not error")
	}
	if results[3].Stats.RingLength != 16 {
		t.Errorf("fault-free B(4,2) ring = %d, want 16", results[3].Stats.RingLength)
	}
}

// TestConcurrentBatchSharedCache is the acceptance scenario: a batch of
// concurrent calls repeating one (topology, fault set) pair computes it
// once and serves every other request with the hit counter set.
func TestConcurrentBatchSharedCache(t *testing.T) {
	eng := New(Options{Workers: 8})
	const copies = 24
	reqs := make([]Request, copies)
	for i := range reqs {
		// Vary order and duplication so only canonicalization can unify.
		if i%2 == 0 {
			reqs[i] = Request{Spec: "debruijn(4,3)", Faults: topology.NodeFaults(7, 21)}
		} else {
			reqs[i] = Request{Spec: "debruijn(4,3)", Faults: topology.NodeFaults(21, 7, 7)}
		}
	}
	results := eng.EmbedBatch(context.Background(), reqs)
	hits := 0
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if res.Stats.CacheHit {
			hits++
		}
	}
	cs := eng.CacheStats()
	if cs.Misses != 1 {
		t.Errorf("computed %d times, want once", cs.Misses)
	}
	if hits != copies-1 || cs.Hits != copies-1 {
		t.Errorf("hits = %d (stats %d), want %d", hits, cs.Hits, copies-1)
	}
}

func TestContextCancellation(t *testing.T) {
	eng := New(Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.EmbedRing(ctx, Request{Spec: "debruijn(3,3)"}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled EmbedRing returned %v", err)
	}
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = Request{Spec: "debruijn(4,4)", Faults: topology.NodeFaults(i)}
	}
	results := eng.EmbedBatch(ctx, reqs)
	for i, res := range results {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("request %d: err = %v, want context.Canceled", i, res.Err)
		}
	}
}

// blockingNet stalls EmbedRing until released, to pin a worker while a
// batch is cancelled mid-flight.
type blockingNet struct {
	topology.RingEmbedder
	started chan struct{} // closed when the first embedding begins
	release chan struct{}
	once    sync.Once
}

func (b *blockingNet) EmbedRing(f topology.FaultSet) ([]int, *topology.EmbedInfo, error) {
	b.once.Do(func() { close(b.started) })
	<-b.release
	return b.RingEmbedder.EmbedRing(f)
}

// TestEmbedBatchMidflightCancellation cancels a batch while its single
// worker is stuck on the first request: every queued request must
// complete with ctx.Err() instead of being dispatched and embedded.
func TestEmbedBatchMidflightCancellation(t *testing.T) {
	db, err := topology.FromSpec("debruijn(3,4)")
	if err != nil {
		t.Fatal(err)
	}
	blocker := &blockingNet{
		RingEmbedder: db,
		started:      make(chan struct{}),
		release:      make(chan struct{}),
	}
	eng := New(Options{Workers: 1})
	reqs := make([]Request, 8)
	reqs[0] = Request{Network: blocker}
	for i := 1; i < len(reqs); i++ {
		reqs[i] = Request{Spec: "debruijn(3,4)", Faults: topology.NodeFaults(i)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []Result, 1)
	go func() { done <- eng.EmbedBatch(ctx, reqs) }()
	<-blocker.started
	cancel()
	close(blocker.release)
	results := <-done
	// Request 0 had already started; it is allowed to finish.  Everything
	// queued behind it must carry the cancellation error.
	for i := 1; i < len(results); i++ {
		if !errors.Is(results[i].Err, context.Canceled) {
			t.Errorf("request %d: err = %v, want context.Canceled", i, results[i].Err)
		}
	}
}

func TestEmbedRingErrorsAreNotCached(t *testing.T) {
	eng := New(Options{})
	ctx := context.Background()
	// Butterfly rejects processor faults.
	bad := Request{Spec: "butterfly(3,2)", Faults: topology.NodeFaults(0)}
	if _, err := eng.EmbedRing(ctx, bad); err == nil {
		t.Fatal("expected error")
	}
	cs := eng.CacheStats()
	if cs.Entries != 0 {
		t.Errorf("error result was cached: %+v", cs)
	}
	if _, err := eng.EmbedRing(ctx, Request{}); err == nil {
		t.Error("empty request accepted")
	}
}

func TestFailedRequestAccounting(t *testing.T) {
	eng := New(Options{Workers: 8})
	// Concurrent identical failing requests: the initiator and every
	// collapsed waiter must all be accounted, so Hits+Misses equals the
	// served request count even on the error path.
	const copies = 12
	reqs := make([]Request, copies)
	for i := range reqs {
		reqs[i] = Request{Spec: "butterfly(3,2)", Faults: topology.NodeFaults(0)}
	}
	results := eng.EmbedBatch(context.Background(), reqs)
	for i, res := range results {
		if res.Err == nil {
			t.Fatalf("request %d unexpectedly succeeded", i)
		}
	}
	cs := eng.CacheStats()
	if cs.Hits+cs.Misses != copies {
		t.Errorf("accounted %d of %d failing requests (%+v)", cs.Hits+cs.Misses, copies, cs)
	}
	if cs.Entries != 0 {
		t.Errorf("failed result cached: %+v", cs)
	}
}

func TestLRUEviction(t *testing.T) {
	eng := New(Options{CacheSize: 2})
	ctx := context.Background()
	for _, f := range [][]int{{0}, {1}, {2}} {
		if _, err := eng.EmbedRing(ctx, Request{Spec: "debruijn(4,2)", Faults: topology.NodeFaults(f...)}); err != nil {
			t.Fatal(err)
		}
	}
	cs := eng.CacheStats()
	if cs.Entries != 2 || cs.Evicted != 1 {
		t.Errorf("cache stats after eviction = %+v", cs)
	}
	// The oldest entry {0} was evicted: re-requesting it recomputes.
	res, err := eng.EmbedRing(ctx, Request{Spec: "debruijn(4,2)", Faults: topology.NodeFaults(0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHit {
		t.Error("evicted entry reported a cache hit")
	}
	// {2} is still resident.
	res, err = eng.EmbedRing(ctx, Request{Spec: "debruijn(4,2)", Faults: topology.NodeFaults(2)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.CacheHit {
		t.Error("resident entry missed")
	}
}

// TestCacheCountersInRegistry scripts hits, misses and evictions
// through a one-entry cache and checks that the registry's cache
// families read the same counts as CacheStats.
func TestCacheCountersInRegistry(t *testing.T) {
	eng := New(Options{CacheSize: 1})
	ctx := context.Background()
	// {0} miss, {0} hit, {1} miss evicting {0}, {0} miss evicting {1},
	// {0} hit.
	for _, f := range []int{0, 0, 1, 0, 0} {
		if _, err := eng.EmbedRing(ctx, Request{Spec: "debruijn(4,2)", Faults: topology.NodeFaults(f)}); err != nil {
			t.Fatal(err)
		}
	}
	cs := eng.CacheStats()
	if cs.Hits != 2 || cs.Misses != 3 || cs.Evicted != 2 || cs.Entries != 1 {
		t.Errorf("cache stats = %+v, want 2 hits, 3 misses, 2 evicted, 1 entry", cs)
	}
	snap := eng.Registry().Snapshot()
	for family, want := range map[string]int64{
		"engine_cache_hits_total":    cs.Hits,
		"engine_cache_misses_total":  cs.Misses,
		"engine_cache_evicted_total": cs.Evicted,
	} {
		if got := snap.Counters[family]; got != want {
			t.Errorf("%s = %d, CacheStats says %d", family, got, want)
		}
	}
	if got := snap.Gauges["engine_cache_entries"]; got != int64(cs.Entries) {
		t.Errorf("engine_cache_entries = %d, CacheStats says %d", got, cs.Entries)
	}
}

func TestCacheDisabled(t *testing.T) {
	eng := New(Options{CacheSize: -1})
	ctx := context.Background()
	req := Request{Spec: "debruijn(3,3)", Faults: topology.NodeFaults(6)}
	if _, err := eng.EmbedRing(ctx, req); err != nil {
		t.Fatal(err)
	}
	res, err := eng.EmbedRing(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHit {
		t.Error("disabled cache still hit")
	}
	if cs := eng.CacheStats(); cs.Entries != 0 || cs.Capacity != 0 {
		t.Errorf("disabled cache stats = %+v", cs)
	}
}

// TestConcurrentMixedLoad hammers the engine from many goroutines to
// shake out races (run with -race in CI).
func TestConcurrentMixedLoad(t *testing.T) {
	eng := New(Options{Workers: 8, CacheSize: 8})
	specs := []string{"debruijn(3,3)", "debruijn(4,2)", "hypercube(5)", "shuffleexchange(3,2)"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				spec := specs[(w+i)%len(specs)]
				_, err := eng.EmbedRing(context.Background(), Request{
					Spec: spec, Faults: topology.NodeFaults(i % 4),
				})
				if err != nil {
					t.Errorf("%s: %v", spec, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	cs := eng.CacheStats()
	if cs.Hits+cs.Misses != 160 {
		t.Errorf("accounted %d requests, want 160", cs.Hits+cs.Misses)
	}
}

func TestEngineStats(t *testing.T) {
	eng := New(Options{})
	ctx := context.Background()
	req := Request{Spec: "debruijn(3,3)", Faults: topology.NodeFaults(6)}
	for i := 0; i < 4; i++ {
		if _, err := eng.EmbedRing(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	s := eng.Stats()
	if s.Requests != 4 || s.Hits != 3 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 miss + 3 hits", s)
	}
	if s.HitRate != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", s.HitRate)
	}
	if s.LatencySamples != 4 {
		t.Errorf("latency samples = %d, want 4", s.LatencySamples)
	}
	if s.LatencyP50Ns <= 0 || s.LatencyP99Ns < s.LatencyP50Ns || s.LatencyP999Ns < s.LatencyP99Ns {
		t.Errorf("latency percentiles p50=%d p99=%d p999=%d", s.LatencyP50Ns, s.LatencyP99Ns, s.LatencyP999Ns)
	}
	snap := eng.Registry().Snapshot()
	if got := snap.Histograms["engine_request_ns"].Count; got != 4 {
		t.Errorf("engine_request_ns count = %d, want 4", got)
	}
	if got := snap.Counters["engine_cache_hits_total"]; got != 3 {
		t.Errorf("engine_cache_hits_total = %d, want 3", got)
	}
}

func TestEngineStatsEmpty(t *testing.T) {
	eng := New(Options{})
	s := eng.Stats()
	if s.Requests != 0 || s.HitRate != 0 || s.LatencySamples != 0 || s.LatencyP50Ns != 0 {
		t.Errorf("fresh engine stats = %+v", s)
	}
}
