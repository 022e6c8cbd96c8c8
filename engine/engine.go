// Package engine provides a concurrent ring-embedding engine over the
// topology-generic Network interface: a single codepath that serves
// EmbedRing-style requests for every adapter, memoizes results in an LRU
// cache keyed by (topology, canonicalized fault set), collapses
// duplicate in-flight computations, runs batches across a worker pool
// and reports per-request statistics (cache hit, rounds, ring length
// against the dⁿ − nf bound).
//
// The engine copies no ring: the one the adapter returns on a miss is
// the one it caches, and every request for the same key, hit or
// collapsed in-flight waiter, shares it.  Result.Ring is therefore
// read-only.
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
	// Workers bounds how many embeds of a batch run concurrently; 0
	// means GOMAXPROCS.  Each embed itself is serial.
	Workers int
	// CacheSize is the LRU capacity in (topology, fault set) entries;
	// 0 means DefaultCacheSize, negative disables caching.
	CacheSize int
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
	workers int

	reg     *obs.Registry
	latHist *obs.Histogram // engine_request_ns
	hits    *obs.Counter   // engine_cache_hits_total
	misses  *obs.Counter   // engine_cache_misses_total
	evicted *obs.Counter   // engine_cache_evicted_total

	mu       sync.Mutex
	cache    *lruCache
	inflight map[string]*flight
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
	reg.SetHelp("engine_request_ns", "embed request latency (cache hits included, failures excluded)")
	reg.SetHelp("engine_cache_hits_total", "embed cache hits (in-flight collapses included)")
	reg.SetHelp("engine_cache_entries", "live embed cache entries")
	e := &Engine{
		workers:  workers,
		cache:    cache,
		inflight: make(map[string]*flight),
		reg:      reg,
		latHist:  reg.Histogram("engine_request_ns"),
		hits:     reg.Counter("engine_cache_hits_total"),
		misses:   reg.Counter("engine_cache_misses_total"),
		evicted:  reg.Counter("engine_cache_evicted_total"),
	}
	reg.AddCollector(func(r *obs.Registry) {
		e.mu.Lock()
		n := e.cache.len()
		e.mu.Unlock()
		r.Gauge("engine_cache_entries").Set(int64(n))
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
	// Ring is read-only: it is the engine's cached slice, shared with
	// the cache and with every caller of the same (topology, fault
	// set).  A caller that wants to modify it copies it first.
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
	name := net.Name()
	key := name + "|" + req.Faults.Key()

	e.mu.Lock()
	if ent, ok := e.cache.get(key); ok {
		e.mu.Unlock()
		e.hits.Inc()
		return e.result(name, ent.ring, ent.info, true, start), nil
	}
	if fl, ok := e.inflight[key]; ok {
		e.mu.Unlock()
		select {
		case <-fl.done:
			if fl.err != nil {
				// The collapsed computation failed: account the waiter
				// as a miss so Hits+Misses still equals served requests.
				e.misses.Inc()
				return nil, fl.err
			}
			e.hits.Inc()
			return e.result(name, fl.ring, fl.info, true, start), nil
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
	evicted := err == nil && e.cache.add(key, ring, *info)
	e.mu.Unlock()
	e.misses.Inc()
	if evicted {
		e.evicted.Inc()
	}

	if err != nil {
		return nil, err
	}
	return e.result(name, fl.ring, fl.info, false, start), nil
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

// CacheStats returns the engine's cache counters, read from its
// registry, and the cache's current size.
func (e *Engine) CacheStats() CacheStats {
	s := CacheStats{Hits: e.hits.Value(), Misses: e.misses.Value(), Evicted: e.evicted.Value()}
	e.mu.Lock()
	defer e.mu.Unlock()
	s.Entries = e.cache.len()
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
	return net, nil
}

// result assembles a Result for the topology named name, handing out
// ring itself (the cached slice; see Result.Ring), and feeds the
// latency histogram.
func (e *Engine) result(name string, ring []int, info topologyInfo, hit bool, start time.Time) *Result {
	elapsed := time.Since(start)
	e.latHist.Observe(int64(elapsed))
	return &Result{
		Ring: ring,
		Stats: Stats{
			Topology:   name,
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
