// Package engine provides a concurrent ring-embedding engine over the
// topology-generic Network interface: a single codepath that serves
// EmbedRing-style requests for every adapter, memoizes results in an LRU
// cache keyed by (topology, canonicalized fault set), collapses
// duplicate in-flight computations, runs batches across a worker pool
// and reports per-request statistics (cache hit, rounds, ring length
// against the dⁿ − nf bound).
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"debruijnring/obs"
	"debruijnring/topology"
)

// topologyInfo aliases the embedding bookkeeping cached per entry.
type topologyInfo = topology.EmbedInfo

// Options configures an Engine.  The zero value picks sensible defaults.
type Options struct {
	// Workers bounds batch concurrency; 0 means GOMAXPROCS.
	Workers int
	// CacheSize is the LRU capacity in (topology, fault set) entries;
	// 0 means DefaultCacheSize, negative disables caching.
	CacheSize int
	// EmbedWorkers bounds the *intra-embed* frontier parallelism of
	// adapters that support it (topology.EmbedWorkerSetter — the De
	// Bruijn FFC broadcast BFS): 0 means GOMAXPROCS, 1 serial.  Output
	// is bit-identical at any setting.  Orthogonal to Workers, which
	// bounds how many embeds run concurrently.
	EmbedWorkers int
	// Registry receives the engine's metrics (request latency
	// histogram, cache counters).  Nil creates a private registry,
	// reachable via Engine.Registry.
	Registry *obs.Registry
}

// DefaultCacheSize is the LRU capacity used when Options.CacheSize is 0.
const DefaultCacheSize = 512

// Engine embeds fault-free rings concurrently with memoization.  It is
// safe for concurrent use.
type Engine struct {
	workers      int
	embedWorkers int

	reg     *obs.Registry
	latHist *obs.Histogram // engine_request_ns

	mu       sync.Mutex
	cache    *lruCache
	inflight map[string]*flight
	hits     int64
	misses   int64
	evicted  int64
}

// flight is one in-progress embedding; duplicate concurrent requests for
// the same key wait on done and share the result (counted as cache hits).
type flight struct {
	done chan struct{}
	ring []int
	info topologyInfo
	err  error
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var cache *lruCache
	switch {
	case opts.CacheSize == 0:
		cache = newLRU(DefaultCacheSize)
	case opts.CacheSize > 0:
		cache = newLRU(opts.CacheSize)
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{workers: workers, embedWorkers: opts.EmbedWorkers, cache: cache, inflight: make(map[string]*flight), reg: reg}
	reg.SetHelp("engine_request_ns", "embed request latency (cache hits included, failures excluded)")
	e.latHist = reg.Histogram("engine_request_ns")
	// Cache counters live under the engine mutex; a collector mirrors
	// them into the registry at scrape time.
	reg.SetHelp("engine_cache_hits_total", "embed cache hits (in-flight collapses included)")
	reg.SetHelp("engine_cache_entries", "live embed cache entries")
	reg.AddCollector(func(r *obs.Registry) {
		cs := e.CacheStats()
		r.Counter("engine_cache_hits_total").Set(cs.Hits)
		r.Counter("engine_cache_misses_total").Set(cs.Misses)
		r.Counter("engine_cache_evicted_total").Set(cs.Evicted)
		r.Gauge("engine_cache_entries").Set(int64(cs.Entries))
	})
	return e
}

// Registry returns the engine's metrics registry (never nil).
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Request names one embedding: a network (either directly or as a
// topology.FromSpec string) and the components that failed.
type Request struct {
	// Network to embed in; takes precedence over Spec when non-nil.
	Network topology.RingEmbedder
	// Spec is a textual topology spec such as "debruijn(4,6)", resolved
	// with topology.FromSpec when Network is nil.
	Spec string
	// Faults lists the failed processors and links.
	Faults topology.FaultSet
}

// Stats reports the bookkeeping of one served request.
type Stats struct {
	Topology string `json:"topology"`
	CacheHit bool   `json:"cache_hit"`
	// RingLength is len(Result.Ring): processors for unit-dilation
	// embeddings, walk hops for dilation-2 closed walks (see
	// topology.EmbedInfo.RingLength; Survivors carries the processor
	// count there).
	RingLength int           `json:"ring_length"`
	LowerBound int           `json:"lower_bound"` // guaranteed minimum (dⁿ − nf style), 0 if none
	Rounds     int           `json:"rounds"`      // broadcast rounds / eccentricity, where meaningful
	Survivors  int           `json:"survivors"`   // surviving component size, where meaningful
	Dilation   int           `json:"dilation"`
	Elapsed    time.Duration `json:"elapsed_ns"`
}

// Result is one embedded ring with its statistics.  In batch responses a
// failed request carries Err and a nil Ring.
type Result struct {
	Ring  []int
	Stats Stats
	Err   error
}

// EmbedRing serves one request: resolve the network, consult the cache,
// collapse onto an identical in-flight computation if one exists, or run
// the topology's embedding.  Cancelling ctx abandons the wait (the
// underlying computation, if this call started it, still completes and
// populates the cache for later requests).
func (e *Engine) EmbedRing(ctx context.Context, req Request) (*Result, error) {
	net, err := e.resolve(req)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	key := net.Name() + "|" + req.Faults.Key()

	e.mu.Lock()
	if ent, ok := e.cache.get(key); ok {
		e.hits++
		e.mu.Unlock()
		return e.result(net, ent.ring, ent.info, true, start), nil
	}
	if fl, ok := e.inflight[key]; ok {
		e.mu.Unlock()
		select {
		case <-fl.done:
			e.mu.Lock()
			if fl.err != nil {
				// The collapsed computation failed: account the waiter
				// as a miss so Hits+Misses still equals served requests.
				e.misses++
				e.mu.Unlock()
				return nil, fl.err
			}
			e.hits++
			e.mu.Unlock()
			return e.result(net, fl.ring, fl.info, true, start), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	e.inflight[key] = fl
	e.mu.Unlock()

	ring, info, err := net.EmbedRing(req.Faults)
	fl.err = err
	if err == nil {
		fl.ring, fl.info = ring, *info
	}
	close(fl.done)

	e.mu.Lock()
	delete(e.inflight, key)
	e.misses++
	if err == nil && e.cache.add(key, ring, *info) {
		e.evicted++
	}
	e.mu.Unlock()

	if err != nil {
		return nil, err
	}
	return e.result(net, fl.ring, fl.info, false, start), nil
}

// EmbedBatch serves the requests across the worker pool, returning one
// Result per request in the same order.  Requests repeating a (topology,
// fault set) pair are served from cache or collapsed onto the in-flight
// computation and marked CacheHit.  Cancellation propagates to every
// pending request: once ctx is done, queued requests are not dispatched
// at all and workers stop picking up new work — both complete their
// results with Err = ctx.Err() instead of running to completion.
func (e *Engine) EmbedBatch(ctx context.Context, reqs []Request) []Result {
	results := make([]Result, len(reqs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := e.workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					results[i] = Result{Err: err}
					continue
				}
				res, err := e.EmbedRing(ctx, reqs[i])
				if err != nil {
					results[i] = Result{Err: err}
					continue
				}
				results[i] = *res
			}
		}()
	}
dispatch:
	for i := range reqs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			for j := i; j < len(reqs); j++ {
				results[j] = Result{Err: ctx.Err()}
			}
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return results
}

// CacheStats reports cumulative cache behavior.
type CacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Evicted  int64 `json:"evicted"`
	Entries  int   `json:"entries"`
	Capacity int   `json:"capacity"`
}

// CacheStats returns a snapshot of the engine's cache counters.
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cacheStatsLocked()
}

func (e *Engine) cacheStatsLocked() CacheStats {
	s := CacheStats{Hits: e.hits, Misses: e.misses, Evicted: e.evicted, Entries: e.cache.len()}
	if e.cache != nil {
		s.Capacity = e.cache.capacity
	}
	return s
}

// EngineStats is the engine's observability snapshot: cache counters
// (flattened), the cache hit rate and latency percentiles over every
// served request.
type EngineStats struct {
	CacheStats
	Requests       int64   `json:"requests"`
	HitRate        float64 `json:"hit_rate"`
	LatencyP50Ns   int64   `json:"latency_p50_ns"`
	LatencyP99Ns   int64   `json:"latency_p99_ns"`
	LatencyP999Ns  int64   `json:"latency_p999_ns"`
	LatencySamples int64   `json:"latency_samples"`
}

// Stats returns a snapshot of the engine's cache and latency behavior.
// Percentiles come from the engine_request_ns histogram, which covers
// every successfully served request since process start (the former
// bounded reservoir overweighted recent traffic) — cache hits
// included, failed embeddings excluded (they count in Requests via
// Misses but contribute no latency sample, so LatencySamples can trail
// Requests).
func (e *Engine) Stats() EngineStats {
	s := EngineStats{CacheStats: e.CacheStats()}
	s.Requests = s.Hits + s.Misses
	if s.Requests > 0 {
		s.HitRate = float64(s.Hits) / float64(s.Requests)
	}
	lat := e.latHist.Snapshot()
	s.LatencySamples = lat.Count
	if lat.Count > 0 {
		s.LatencyP50Ns = lat.Quantile(0.50)
		s.LatencyP99Ns = lat.Quantile(0.99)
		s.LatencyP999Ns = lat.Quantile(0.999)
	}
	return s
}

func (e *Engine) resolve(req Request) (topology.RingEmbedder, error) {
	net := req.Network
	if net == nil {
		if req.Spec == "" {
			return nil, fmt.Errorf("engine: request names no network (set Network or Spec)")
		}
		var err error
		if net, err = topology.FromSpec(req.Spec); err != nil {
			return nil, err
		}
	}
	// Propagate the intra-embed worker setting to adapters that shard
	// internally (idempotent atomic store; FromSpec memoizes adapters, so
	// this also covers networks resolved before the engine existed).
	if s, ok := net.(topology.EmbedWorkerSetter); ok {
		s.SetEmbedWorkers(e.embedWorkers)
	}
	return net, nil
}

// result assembles a Result, copying the ring so cached slices cannot be
// mutated by callers, and feeds the latency histogram.
func (e *Engine) result(net topology.Network, ring []int, info topologyInfo, hit bool, start time.Time) *Result {
	elapsed := time.Since(start)
	e.latHist.Observe(int64(elapsed))
	return &Result{
		Ring: append([]int(nil), ring...),
		Stats: Stats{
			Topology:   net.Name(),
			CacheHit:   hit,
			RingLength: info.RingLength,
			LowerBound: info.LowerBound,
			Rounds:     info.Rounds,
			Survivors:  info.Survivors,
			Dilation:   info.Dilation,
			Elapsed:    elapsed,
		},
	}
}
