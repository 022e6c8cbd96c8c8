package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"debruijnring/engine"
	"debruijnring/topology"
)

// embedConfig shapes the cold-embed workload: closed-loop callers of
// engine.Engine.EmbedRing with default engine options.
type embedConfig struct {
	d, n        int
	maxFaults   int // f is uniform in 1..maxFaults
	repeatEvery int // every repeatEvery-th request repeats a recent set
	recent      int // how many of a caller's recent fresh sets a repeat draws from
	warmup      int // embeds per caller during set-up
	embedSets   int // fault sets the traced run embeds directly
}

type embedBench struct {
	cfg  embedConfig
	net  *topology.DeBruijn
	eng  *engine.Engine
	rec  *recorder
	rngs []*rand.Rand
	cops []int
	seen [][]topology.FaultSet // per caller, most recent last

	mu   sync.Mutex
	sets []topology.FaultSet // fresh sets of the traced window, for the layer pass
}

func setupEmbed(cfg embedConfig, seed int64, conns int, rec *recorder) (*embedBench, error) {
	net, err := topology.NewDeBruijn(cfg.d, cfg.n)
	if err != nil {
		return nil, err
	}
	b := &embedBench{cfg: cfg, net: net, eng: engine.New(engine.Options{}), rec: rec,
		cops: make([]int, conns), seen: make([][]topology.FaultSet, conns)}
	for c := 0; c < conns; c++ {
		b.rngs = append(b.rngs, rand.New(rand.NewSource(seed*1000003+int64(c)+1)))
	}
	warm := rand.New(rand.NewSource(^seed))
	errs := &errLog{}
	clk := realClock{start: time.Now()}
	for i := 0; i < cfg.warmup*conns; i++ {
		execute(clk, b.embedJob(b.freshSet(warm), "embed"), 0, errs)
	}
	if errs.n > 0 {
		return nil, fmt.Errorf("warm-up: %d failed embeds, first: %s", errs.n, errs.msgs[0])
	}
	return b, nil
}

// freshSet draws f uniform in 1..maxFaults distinct faulty nodes.
func (b *embedBench) freshSet(rng *rand.Rand) topology.FaultSet {
	f := 1 + rng.Intn(b.cfg.maxFaults)
	nodes := make([]int, 0, f)
	for len(nodes) < f {
		if v := rng.Intn(b.net.Nodes()); !slices.Contains(nodes, v) {
			nodes = append(nodes, v)
		}
	}
	return topology.NodeFaults(nodes...).Canonical()
}

// embedJob embeds a ring around set and checks it: a fault-free cycle
// whose length and reported bound match dⁿ − nf.
func (b *embedBench) embedJob(set topology.FaultSet, kind string) job {
	var res *engine.Result
	return job{kind: kind,
		run: func() (err error) {
			res, err = b.eng.EmbedRing(context.Background(), engine.Request{Network: b.net, Faults: set})
			return err
		},
		check: func() error {
			start := b.rec.now()
			err := checkRing(b.net, res.Ring, set.Nodes)
			b.rec.record(span{Layer: "verify", Kind: kind, Start: start, End: b.rec.now()})
			if err == nil && (res.Stats.RingLength != len(res.Ring) || res.Stats.LowerBound != lowerBound(b.net, len(set.Nodes))) {
				err = fmt.Errorf("stats report length %d bound %d for a ring of %d around %d faults",
					res.Stats.RingLength, res.Stats.LowerBound, len(res.Ring), len(set.Nodes))
			}
			return err
		},
	}
}

func (b *embedBench) load(clk clock, _, until time.Duration, errs *errLog) loadResult {
	recs, checkMean := closedLoop(clk, len(b.rngs), until, func(c, _ int) job {
		i, rng := b.cops[c], b.rngs[c]
		b.cops[c]++
		if i%b.cfg.repeatEvery == b.cfg.repeatEvery-1 && len(b.seen[c]) > 0 {
			return b.embedJob(b.seen[c][rng.Intn(len(b.seen[c]))], "read")
		}
		set := b.freshSet(rng)
		if b.seen[c] = append(b.seen[c], set); len(b.seen[c]) > b.cfg.recent {
			b.seen[c] = b.seen[c][1:]
		}
		if b.rec.on.Load() {
			b.mu.Lock()
			if len(b.sets) < b.cfg.embedSets {
				b.sets = append(b.sets, set)
			}
			b.mu.Unlock()
		}
		return b.embedJob(set, "embed")
	}, errs)
	return loadResult{recs: recs, checkMean: checkMean, backlogMax: len(b.rngs)}
}

// verify has nothing left to check: every returned ring was verified as
// it arrived, outside the timed call.
func (b *embedBench) verify(*errLog) {}

// offPath: no router, replica, session or repair ladder serves an embed.
func (b *embedBench) offPath() ([]string, int, int) {
	return []string{"fleet.", "session.", "repair."}, b.cfg.d, b.cfg.n
}

func (b *embedBench) layers(_ string, spans []span, _ []opRec, m map[string]float64, _ *errLog) {
	var verify samples
	for _, s := range spans {
		if s.Layer == "verify" {
			verify = append(verify, us(s.dur()))
		}
	}
	m["topology.verify_p50_us"] = verify.median()
	cs := b.eng.CacheStats()
	m["engine.hit_ratio"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
	embedLayers(b.cfg.d, b.cfg.n, b.sets, m)
}

func (b *embedBench) close() {}
