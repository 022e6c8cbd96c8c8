package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"debruijnring/engine"
	"debruijnring/internal/repair"
	"debruijnring/session"
	"debruijnring/topology"
)

func us(ns int64) float64 { return float64(ns) / 1e3 }
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// httpLayers attributes the traced window's HTTP requests from the spans
// of the listeners the benchmark mounts: the router's self time (its
// span minus the primary span it caused), the standby's replication
// appends, the primary handler, and the client time outside the
// outermost server span.
func httpLayers(spans []span, recs []opRec, m map[string]float64) {
	router, prim := byID(spans, "router"), byID(spans, "primary")
	var routerSelf, server, readServer, transport, appends samples
	var appendBytes int64
	for _, s := range spans {
		switch {
		case s.Layer == "router":
			routerSelf = append(routerSelf, us(selfTime(s, prim[s.ID])))
		case s.Layer == "primary" && s.Kind == "event":
			server = append(server, us(s.dur()))
		case s.Layer == "primary" && s.Kind == "read":
			readServer = append(readServer, us(s.dur()))
		case s.Layer == "standby" && s.Kind == "append":
			appends = append(appends, us(s.dur()))
			appendBytes += s.Bytes
		case s.Layer == "client":
			outer := router[s.ID]
			if len(outer) == 0 {
				outer = prim[s.ID]
			}
			if len(outer) == 1 {
				transport = append(transport, us(s.dur()-outer[0].dur()))
			}
		}
	}
	events := 0
	for _, r := range recs {
		if r.kind == "event" && !r.failed {
			events++
		}
	}
	m["fleet.router.self_p50_us"] = routerSelf.median()
	m["fleet.router.self_p99_us"], _ = routerSelf.tail(99)
	m["fleet.replica.append_p50_us"] = appends.median()
	m["fleet.replica.appends_per_event"] = ratio(float64(len(appends)), float64(events))
	m["fleet.replica.bytes_per_event"] = ratio(float64(appendBytes), float64(events))
	m["session.http.server_p50_us"] = server.median()
	m["session.http.read_server_p50_us"] = readServer.median()
	m["session.http.transport_p50_us"] = transport.median()
}

func (b *sessionsBench) layers(dir string, spans []span, recs []opRec, m map[string]float64, errs *errLog) {
	httpLayers(spans, recs, m)
	var sets []topology.FaultSet
	seen := make(map[string]bool)
	for _, s := range b.sess {
		for _, e := range s.log {
			f := topology.NodeFaults(e.faults...).Canonical()
			if k := f.Key(); len(f.Nodes) > 0 && !seen[k] && len(sets) < b.cfg.embedSets {
				seen[k] = true
				sets = append(sets, f)
			}
		}
	}
	b.replayLayers(dir, m, errs)
	m["engine.hit_ratio"] = 0 // sessions repair through their own patchers, not the engine cache
	embedLayers(b.cfg.d, b.cfg.n, sets, m)
}

// reembedSamples is how many of each session's replayed events also time
// a full re-embed on a separate patcher.
const reembedSamples = 8

// replayLayers drives each session's acknowledged events, in seq order,
// through the layers directly: first repair.For(net) with
// topology.VerifyRing on every candidate ring (the repair ladder a
// session runs), then Session.AddFaults/RemoveFaults on a fresh manager
// journaling through a timing Store.  An event's session self time is
// its span minus the repair, verify and journal spans of that event.
// The replay must reproduce every acknowledged ring hash.
func (b *sessionsBench) replayLayers(dir string, m map[string]float64, errs *errLog) {
	per := b.cfg.replayCap / len(b.sess)
	logs := make([][]ackedEvent, len(b.sess))
	for k, s := range b.sess {
		logs[k] = s.log[:min(per, len(s.log))]
	}

	var patch, unpatch, reembed, verify samples
	var changed, local, reembeds int
	cost := make([][]int64, len(logs))
	fresh := repair.For(b.net)
	for k, log := range logs {
		p := repair.For(b.net)
		if _, _, err := p.Embed(topology.FaultSet{}); err != nil {
			errs.add("replay", err)
			return
		}
		for j, e := range log {
			faults := topology.NodeFaults(e.faults...)
			batch := topology.NodeFaults(e.node)
			t := time.Now()
			var r []int
			var out repair.Outcome
			if e.heal {
				r, out = p.Unpatch(batch)
				unpatch = append(unpatch, us(int64(time.Since(t))))
			} else {
				r, out = p.Patch(batch)
				patch = append(patch, us(int64(time.Since(t))))
			}
			accepted := out == repair.Noop
			if out == repair.Patched || out == repair.Reordered || out == repair.Readmitted || out == repair.Spliced {
				vt := time.Now()
				accepted = topology.VerifyRing(b.net, r, faults) && len(r) >= lowerBound(b.net, len(e.faults))
				verify = append(verify, us(int64(time.Since(vt))))
				if accepted {
					local++
				}
			}
			if !accepted {
				if _, _, err := p.Embed(faults); err != nil {
					errs.add("replay", err)
				}
				reembeds++
			}
			changed++
			cost[k] = append(cost[k], int64(time.Since(t)))
			if j < reembedSamples {
				// The ladder's last rung, priced whether or not this
				// event needed it.
				et := time.Now()
				fresh.Embed(faults)
				reembed = append(reembed, us(int64(time.Since(et))))
			}
		}
	}
	m["repair.patch_p50_us"] = patch.median()
	m["repair.unpatch_p50_us"] = unpatch.median()
	m["repair.reembed_p50_us"] = reembed.median()
	m["repair.local_ratio"] = ratio(float64(local), float64(changed))
	m["repair.reembed_ratio"] = ratio(float64(reembeds), float64(changed))
	m["topology.verify_p50_us"] = verify.median()

	jrec := newRecorder()
	jrec.on.Store(true)
	store := timedStore{Store: session.NewDirStore(dir), rec: jrec}
	mgr := session.NewManager(nil, session.Options{Store: store})
	defer mgr.Close()
	var event, self, appends samples
	seen := 0
	for k, log := range logs {
		s, err := mgr.Create(b.sess[k].name, b.spec, topology.FaultSet{})
		if err != nil {
			errs.add("replay", err)
			return
		}
		for j, e := range log {
			batch := topology.NodeFaults(e.node)
			t := time.Now()
			var ev *session.Event
			if e.heal {
				ev, err = s.RemoveFaults(batch)
			} else {
				ev, err = s.AddFaults(batch)
			}
			d := int64(time.Since(t))
			var journal int64
			var js []span
			js, seen = jrec.since(seen)
			for _, a := range js {
				journal += a.dur()
				appends = append(appends, us(a.dur()))
			}
			event = append(event, us(d))
			self = append(self, us(d-cost[k][j]-journal))
			if err != nil {
				errs.add("replay", err)
			} else if ev.RingHash != e.hash {
				errs.add("replay", fmt.Errorf("%s seq %d: replayed ring hash %s, acknowledged %s", s.Name(), ev.Seq, ev.RingHash, e.hash))
			}
		}
	}
	m["session.event_p50_us"] = event.median()
	m["session.event_p99_us"], _ = event.tail(99)
	m["session.self_p50_us"] = self.median()
	m["session.journal.append_p50_us"] = appends.median()
	m["session.journal.append_p99_us"], _ = appends.tail(99)
	evBytes, snapBytes, err := journalBytes(dir)
	if err != nil {
		errs.add("replay", err)
	}
	m["session.journal.bytes_per_event"] = evBytes.median()
	m["session.journal.snapshot_bytes"] = snapBytes.median()
}

// journalBytes measures the journal lines the replay wrote: the sizes of
// fault/heal event lines and of snapshot lines.
func journalBytes(dir string) (events, snapshots samples, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil {
		return nil, nil, err
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 64<<20)
		for sc.Scan() {
			var ev struct{ Kind string }
			if json.Unmarshal(sc.Bytes(), &ev) != nil {
				continue
			}
			switch ev.Kind {
			case "fault", "heal":
				events = append(events, float64(len(sc.Bytes())+1))
			case "snapshot":
				snapshots = append(snapshots, float64(len(sc.Bytes())+1))
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, nil, err
		}
	}
	return events, snapshots, nil
}

// timedStore records a span around every journal append of the
// sessions it creates (the replay never reopens a journal).
type timedStore struct {
	session.Store
	rec *recorder
}

func (s timedStore) Create(name string) (session.JournalWriter, error) {
	w, err := s.Store.Create(name)
	return timedWriter{w, s.rec}, err
}

type timedWriter struct {
	session.JournalWriter
	rec *recorder
}

func (w timedWriter) Append(ev session.Event) error {
	start := w.rec.now()
	err := w.JournalWriter.Append(ev)
	w.rec.record(span{Layer: "journal", Kind: ev.Kind, Start: start, End: w.rec.now()})
	return err
}

// embedLayers times topology.DeBruijn.EmbedRing on each set at the
// engine's default worker count (GOMAXPROCS) and serially, and
// engine.Engine.EmbedRing on a fresh engine (a miss, then a hit).  The
// engine's overhead is its miss minus the direct embed of the same set.
//
// Errors are not checked here: the dimensions are the workload's own and
// every set was already embedded, and checked, during the run.
func embedLayers(d, n int, sets []topology.FaultSet, m map[string]float64) {
	direct, _ := topology.NewDeBruijn(d, n)
	engNet, _ := topology.NewDeBruijn(d, n)
	eng := engine.New(engine.Options{})
	ctx := context.Background()
	direct.EmbedRing(topology.FaultSet{})
	eng.EmbedRing(ctx, engine.Request{Network: engNet})
	var par, serial, miss, hit, overhead samples
	timed := func(f func()) time.Duration {
		t := time.Now()
		f()
		return time.Since(t)
	}
	for i, f := range sets {
		req := engine.Request{Network: engNet, Faults: f}
		var dm, dh, dd time.Duration
		embed := func() { dd = timed(func() { direct.EmbedRing(f) }) }
		if i%2 == 1 { // alternate which embed runs first
			embed()
		}
		dm = timed(func() { eng.EmbedRing(ctx, req) })
		dh = timed(func() { eng.EmbedRing(ctx, req) })
		if i%2 == 0 {
			embed()
		}
		miss = append(miss, ms(int64(dm)))
		hit = append(hit, us(int64(dh)))
		par = append(par, ms(int64(dd)))
		overhead = append(overhead, us(int64(dm-dd)))
	}
	direct.SetEmbedWorkers(1)
	direct.EmbedRing(topology.FaultSet{})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, f := range sets {
		t := time.Now()
		direct.EmbedRing(f)
		serial = append(serial, ms(int64(time.Since(t))))
	}
	runtime.ReadMemStats(&m1)
	m["engine.miss_p50_ms"] = miss.median()
	m["engine.hit_p50_us"] = hit.median()
	m["engine.overhead_p50_us"] = overhead.median()
	m["ffc.embed_p50_ms"] = par.median()
	m["ffc.embed_serial_p50_ms"] = serial.median()
	m["ffc.parallel_speedup"] = ratio(serial.median(), par.median())
	m["ffc.alloc_kb_per_embed"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, float64(len(sets)))
	m["ffc.allocs_per_embed"] = ratio(float64(m1.Mallocs-m0.Mallocs), float64(len(sets)))
}

// probeTime is how long a side probe drives its fleet.
const probeTime = 3 * time.Second

// probeLayers prices layers a workload's own traffic does not reach, so
// that every per-layer metric is measured on every workload: a side fleet
// (router, two primary+standby groups) serving two B(d,n) sessions,
// driven for probeTime by one closed-loop client whose every fourth op is
// a read, traced and then replayed like a session workload.  Its numbers
// price those layers on the workload's network; they do not feed the
// workload's end-to-end metrics.
func probeLayers(d, n int, seed int64, dir string, errs *errLog) map[string]float64 {
	m := map[string]float64{}
	rec := newRecorder()
	pb, err := setupSessions(sessionsConfig{d: d, n: n, sessions: 2, fleet: true,
		readEvery: 4, maxLive: 4, replayCap: 64}, seed, filepath.Join(dir, "fleet"), 1, rec)
	if err != nil {
		errs.add("probe", err)
		return m
	}
	defer pb.close()
	rec.on.Store(true)
	res := pb.load(realClock{start: time.Now()}, 0, probeTime, errs)
	rec.on.Store(false)
	spans, _ := rec.since(0)
	pb.layers(filepath.Join(dir, "replay"), spans, res.recs, m, errs)
	return m
}
