// Command chaos replays fault traces against a ringsrv instance's
// session API and reports how the incremental-repair subsystem holds
// up: repair-vs-recompute latency and the ring-length degradation curve
// against the paper's dⁿ − nf bound.
//
// Traces are either generated (random faults over the topology, seeded
// and reproducible) or replayed from a recorded JSON file, so a
// production incident can be re-run against a patched server build.
// Generated traces model the full bidirectional lifecycle: with
// -heal-rate set, events heal previously injected faults (DELETE
// …/faults) as well as add new ones, exercising the un-patch path.
//
// Usage:
//
//	chaos -server http://localhost:8080 -topology 'debruijn(2,10)' -events 10 -seed 7
//	chaos -server http://localhost:8080 -topology 'debruijn(2,10)' -events 64 -heal-rate 0.3 -record trace.json
//	chaos -server http://localhost:8080 -replay trace.json
//	chaos -server http://localhost:8080 -topology 'debruijn(2,10)' -soak 60s -heal-rate 0.35 -check
//	chaos -server http://localhost:8080 -topology 'debruijn(2,10)' -soak 60s -heal-rate 0.35 \
//	      -splice-rate 0.05 -check -min-splice 1
//	chaos -topology 'debruijn(4,6)' -events 32 -record trace.json   # generate only
//	chaos -server http://localhost:8000 -topology 'debruijn(2,10)' -sessions 120 -events 20 -heal-rate 0.3
//	chaos -server http://localhost:8000 -topology 'debruijn(2,8)' -sessions 32 -soak 45s \
//	      -heal-rate 0.3 -rebalance g-new=http://localhost:8084
//
// Flags:
//
//	-server      ringsrv base URL (empty with -record: generate the trace and exit)
//	-topology    topology spec for generated traces
//	-events      fault events to generate (one fault per event)
//	-seed        RNG seed for generated traces
//	-edge-prob   probability an event is a link fault instead of a node fault
//	-heal-rate   probability an event heals a live injected fault instead of adding one
//	-splice-rate probability an event faults the FFC root processor (node 0), the
//	             fault class the structural tier always declines — exercises the
//	             splice tier of the repair ladder
//	-max-live    cap on concurrently live injected faults (0 = word length n heuristic)
//	-session     session name (default chaos-<seed>)
//	-sessions    drive this many concurrent sessions (fleet load mode: names
//	             <session>-<i>, seeds <seed>+i, per-event output suppressed,
//	             one aggregated report; point -server at a ringfleet router
//	             and the sessions spread across the shards)
//	-rebalance   fleet soak only: add this shard group ("name=primaryURL[=replicaURL]")
//	             to the router at the soak midpoint via POST /v1/fleet/shards, so the
//	             run exercises the drain/hand-off/flip choreography under live load;
//	             the run fails if the add does, and reports drain-induced retries
//	             separately from failover retries
//	-replay      JSON trace file to replay instead of generating
//	-record      write the generated trace to this file
//	-interval    pause between events (e.g. 100ms), simulating fault arrival
//	-soak        keep generating events for this long (overrides -events; soak mode)
//	-check       verify every ring locally and compare against a cold re-embed
//	-min-splice  exit nonzero unless at least this many events resolved in the
//	             splice tier (guards against the chain silently degenerating to
//	             re-embed-only)
//	-keep        leave the session on the server after the run
//
// With -check, chaos independently verifies each reported ring with
// topology.VerifyRing against the session's cumulative fault set and
// cross-checks it against a cold EmbedRing of the same fault set: while
// the structural tier owns the ring the lengths must match exactly;
// once the splice tier has taken over (repair "splice") the ring
// legitimately departs from the cold shape, and the check becomes the
// paper's dⁿ − nf bound whenever the cold embed meets it, until the
// next re-embed re-adopts the ring.  Any verify error or divergence
// exits nonzero, which is what the CI soak job gates on.
//
// -check also reads the server's merged metrics snapshot
// (GET /v1/metrics) and prints per-tier repair-latency quantiles
// (p50/p99/p999) from the server-side histograms; against a ringfleet
// router it additionally re-fetches every shard's local snapshot,
// merges it offline and verifies the router's fleet-wide histograms
// bucket-for-bucket, exiting nonzero on divergence.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"debruijnring/internal/repair"
	"debruijnring/obs"
	"debruijnring/session"
	"debruijnring/topology"
)

// TraceEvent is one recorded lifecycle step: a fault batch (Heal false)
// or a heal batch (Heal true) in the session API's request shape.
// Traces recorded before heals existed decode with Heal == false.
type TraceEvent struct {
	session.FaultsRequest
	Heal bool `json:"heal,omitempty"`
}

// Trace is the recorded fault stream: a topology and the lifecycle
// events to feed it, in order.
type Trace struct {
	Topology string       `json:"topology"`
	Seed     int64        `json:"seed,omitempty"`
	Events   []TraceEvent `json:"events"`
}

func main() {
	server := flag.String("server", "", "ringsrv base URL, e.g. http://localhost:8080")
	spec := flag.String("topology", "debruijn(2,10)", "topology spec for generated traces")
	events := flag.Int("events", 10, "number of generated fault events")
	seed := flag.Int64("seed", 1, "RNG seed for generated traces")
	edgeProb := flag.Float64("edge-prob", 0, "probability an event is a link fault")
	healRate := flag.Float64("heal-rate", 0, "probability an event heals a live injected fault")
	spliceRate := flag.Float64("splice-rate", 0, "probability an event faults the FFC root processor (exercises the splice tier)")
	maxLive := flag.Int("max-live", 0, "cap on live injected faults (0 = topology heuristic)")
	name := flag.String("session", "", "session name (default chaos-<seed>)")
	sessionsN := flag.Int("sessions", 1, "concurrent sessions to drive (fleet load mode; names <session>-<i>, seeds <seed>+i)")
	rebalance := flag.String("rebalance", "", "fleet soak only: add this shard group (name=primaryURL[=replicaURL]) to the router mid-soak via POST /v1/fleet/shards")
	replay := flag.String("replay", "", "JSON trace file to replay")
	record := flag.String("record", "", "write the generated trace to this file")
	interval := flag.Duration("interval", 0, "pause between fault events")
	soak := flag.Duration("soak", 0, "generate events for this duration (soak mode)")
	check := flag.Bool("check", false, "verify rings locally and compare against cold re-embeds")
	minSplice := flag.Int("min-splice", 0, "fail unless at least this many events resolved in the splice tier")
	keep := flag.Bool("keep", false, "keep the session after the run")
	flag.Parse()

	if *soak > 0 && *replay != "" {
		fmt.Fprintln(os.Stderr, "chaos: -soak and -replay are mutually exclusive")
		os.Exit(1)
	}
	if *rebalance != "" && (*sessionsN <= 1 || *soak == 0) {
		fmt.Fprintln(os.Stderr, "chaos: -rebalance needs a fleet soak run (-sessions > 1 and -soak)")
		os.Exit(1)
	}
	if *sessionsN > 1 {
		if *replay != "" || *record != "" {
			fmt.Fprintln(os.Stderr, "chaos: -sessions > 1 drives generated traces only (drop -replay/-record)")
			os.Exit(1)
		}
		if *server == "" {
			fmt.Fprintln(os.Stderr, "chaos: -sessions needs a -server")
			os.Exit(1)
		}
		err := runFleet(fleetConfig{
			server: *server, spec: *spec, baseName: *name,
			sessions: *sessionsN, events: *events, seed: *seed,
			edgeProb: *edgeProb, healRate: *healRate, spliceRate: *spliceRate,
			maxLive: *maxLive, interval: *interval, soak: *soak,
			check: *check, keep: *keep, minSplice: *minSplice,
			rebalance: *rebalance,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
		return
	}

	var trace *Trace
	var gen *generator
	var err error
	if *replay != "" {
		trace, err = loadTrace(*replay)
	} else {
		gen, err = newGenerator(*spec, *seed, *edgeProb, *healRate, *spliceRate, *maxLive)
		if err == nil && *soak == 0 {
			trace = gen.pregenerate(*events)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
	if *record != "" && trace != nil {
		if err := writeTrace(*record, trace); err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "chaos: recorded %d events to %s\n", len(trace.Events), *record)
	}
	if *server == "" {
		if *record == "" || trace == nil {
			fmt.Fprintln(os.Stderr, "chaos: no -server and no -record; nothing to do")
			os.Exit(1)
		}
		return
	}

	r := &runner{
		server:    *server,
		interval:  *interval,
		keep:      *keep,
		check:     *check,
		soak:      *soak,
		minSplice: *minSplice,
		metrics:   obs.NewRegistry(),
	}
	if trace != nil {
		r.topology = trace.Topology
		r.events = trace.Events
		r.seed = trace.Seed
	} else {
		r.topology = *spec
		r.gen = gen
		r.seed = *seed
	}
	r.name = *name
	if r.name == "" {
		r.name = fmt.Sprintf("chaos-%d", r.seed)
	}
	if err := r.run(); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
}

// fleetConfig parameterizes a multi-session run.
type fleetConfig struct {
	server, spec, baseName         string
	sessions, events               int
	seed                           int64
	edgeProb, healRate, spliceRate float64
	maxLive                        int
	interval, soak                 time.Duration
	check, keep                    bool
	minSplice                      int
	// rebalance, when set ("name=primaryURL[=replicaURL]"), adds that
	// shard group to the router at the soak midpoint, so the run
	// exercises the drain/hand-off/flip choreography under live load.
	rebalance string
}

// runFleet drives N concurrent sessions — each with its own derived
// seed and generator — and aggregates their samples into one report.
// This is the fleet acceptance mode: point -server at a ringfleet
// router and the sessions spread over the shards by consistent hash of
// their names, so the stream keeps flowing through shard failovers
// (the client retries through the promotion window).
func runFleet(cfg fleetConfig) error {
	base := cfg.baseName
	if base == "" {
		base = fmt.Sprintf("chaos-%d", cfg.seed)
	}
	// One shared registry: every client counts its retries in it and
	// every runner its events, so the aggregated report reads one
	// metrics snapshot.
	metrics := obs.NewRegistry()
	runners := make([]*runner, cfg.sessions)
	for i := range runners {
		seed := cfg.seed + int64(i)
		gen, err := newGenerator(cfg.spec, seed, cfg.edgeProb, cfg.healRate, cfg.spliceRate, cfg.maxLive)
		if err != nil {
			return err
		}
		r := &runner{
			server:   cfg.server,
			topology: cfg.spec,
			name:     fmt.Sprintf("%s-%03d", base, i),
			seed:     seed,
			interval: cfg.interval,
			soak:     cfg.soak,
			keep:     cfg.keep,
			check:    cfg.check,
			quiet:    true,
			metrics:  metrics,
			// Per-session clients so drain-induced retries (rebalance
			// choreography) are countable apart from failover retries.
			client: &session.Client{Base: cfg.server, Metrics: metrics},
		}
		if cfg.rebalance != "" {
			// The retry budget must outlast the drain window of the
			// mid-soak shard add: the drain covers the whole moved
			// keyspace while sessions hand off one at a time, so a
			// session drained first and moved last waits for the full
			// add (seconds, under race-built shards).  This budget
			// sums to ~8s of backoff.
			r.client.MaxAttempts = 20
			r.client.RetryBase = 25 * time.Millisecond
			r.client.RetryCap = 500 * time.Millisecond
		}
		if cfg.soak > 0 {
			r.gen = gen
		} else {
			r.events = gen.pregenerate(cfg.events).Events
		}
		runners[i] = r
	}
	fmt.Printf("fleet run: %d sessions against %s (%s, seeds %d..%d)\n",
		cfg.sessions, cfg.server, cfg.spec, cfg.seed, cfg.seed+int64(cfg.sessions-1))
	start := time.Now()

	// Mid-soak membership change: add the shard group at the halfway
	// mark, while every session keeps streaming.
	rebalanced := make(chan error, 1)
	if cfg.rebalance != "" {
		go func() {
			time.Sleep(cfg.soak / 2)
			rebalanced <- addShardGroup(cfg.server, cfg.rebalance)
		}()
	}

	errs := make([]error, len(runners))
	var wg sync.WaitGroup
	for i, r := range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.drive()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var samples []sample
	failed := 0
	for i, r := range runners {
		samples = append(samples, r.samples...)
		if errs[i] != nil {
			failed++
			fmt.Fprintf(os.Stderr, "chaos: session %s: %v\n", r.name, errs[i])
		}
	}
	fmt.Printf("%d events across %d sessions in %s (%.0f events/s)\n",
		len(samples), cfg.sessions, elapsed.Round(time.Millisecond),
		float64(len(samples))/elapsed.Seconds())
	snap := metrics.Snapshot()
	fmt.Printf("client retries: %d failover/transient, %d drain-induced (rebalance choreography), %d torn-response\n",
		snap.Counters[obs.Key("session_client_retries_total", "kind", "transient")],
		snap.Counters[obs.Key("session_client_retries_total", "kind", "drain")],
		snap.Counters[obs.Key("session_client_retries_total", "kind", "torn")])
	spliced := report(snap, samples)
	if failed > 0 {
		return fmt.Errorf("%d of %d sessions failed", failed, cfg.sessions)
	}
	if cfg.check {
		if err := reportFleetMetrics(cfg.server); err != nil {
			return err
		}
	}
	if cfg.rebalance != "" {
		if err := <-rebalanced; err != nil {
			return fmt.Errorf("mid-soak rebalance: %w", err)
		}
		fmt.Printf("mid-soak shard add succeeded: %s\n", cfg.rebalance)
	}
	if spliced < cfg.minSplice {
		return fmt.Errorf("splice tier resolved %d events, want ≥ %d (-min-splice)", spliced, cfg.minSplice)
	}
	return nil
}

// addShardGroup POSTs a "name=primaryURL[=replicaURL]" group spec to
// the router's live-membership endpoint.
func addShardGroup(server, spec string) error {
	parts := strings.SplitN(spec, "=", 3)
	if len(parts) < 2 || parts[0] == "" || parts[1] == "" {
		return fmt.Errorf("bad -rebalance spec %q (want name=primaryURL[=replicaURL])", spec)
	}
	group := map[string]string{"name": parts[0], "primary": parts[1]}
	if len(parts) == 3 {
		group["replica"] = parts[2]
	}
	body, err := json.Marshal(group)
	if err != nil {
		return err
	}
	resp, err := http.Post(server+"/v1/fleet/shards", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("POST /v1/fleet/shards: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}

// generator produces a seeded random lifecycle stream, tracking the
// live injected faults so heal events always reference a real one.
type generator struct {
	net        topology.RingEmbedder
	spec       string
	seed       int64
	rng        *rand.Rand
	edgeProb   float64
	healRate   float64
	spliceRate float64
	rootLabel  string
	maxLive    int

	liveNodes []string
	liveEdges []session.EdgeJSON
	buf       []int
}

func newGenerator(spec string, seed int64, edgeProb, healRate, spliceRate float64, maxLive int) (*generator, error) {
	net, err := topology.FromSpec(spec)
	if err != nil {
		return nil, err
	}
	if maxLive <= 0 {
		// Keep the stream inside the regime where local repair applies:
		// the paper's f ≤ n tolerance for De Bruijn, a small constant
		// otherwise.
		maxLive = 4
		if db, ok := net.(*topology.DeBruijn); ok {
			maxLive = db.WordLen() - 1
		}
	}
	return &generator{
		net: net, spec: spec, seed: seed,
		rng:      rand.New(rand.NewSource(seed)),
		edgeProb: edgeProb, healRate: healRate, spliceRate: spliceRate,
		rootLabel: net.Label(0), // the FFC algorithm roots at node 0 while it survives
		maxLive:   maxLive,
	}, nil
}

// next produces the next lifecycle event.
func (g *generator) next() TraceEvent {
	live := len(g.liveNodes) + len(g.liveEdges)
	heal := live > 0 && (g.rng.Float64() < g.healRate || live >= g.maxLive)
	var ev TraceEvent
	if heal {
		ev.Heal = true
		i := g.rng.Intn(live)
		if i < len(g.liveNodes) {
			ev.NodeFaults = []string{g.liveNodes[i]}
			g.liveNodes = append(g.liveNodes[:i], g.liveNodes[i+1:]...)
		} else {
			i -= len(g.liveNodes)
			ev.EdgeFaults = []session.EdgeJSON{g.liveEdges[i]}
			g.liveEdges = append(g.liveEdges[:i], g.liveEdges[i+1:]...)
		}
		return ev
	}
	if g.spliceRate > 0 && g.rng.Float64() < g.spliceRate && !g.nodeLive(g.rootLabel) {
		// Fault the distinguished processor: the FFC tier always
		// declines root-necklace loss, so this event lands in the splice
		// tier (or, when that declines too, measures the re-embed cliff).
		ev.NodeFaults = []string{g.rootLabel}
		g.liveNodes = append(g.liveNodes, g.rootLabel)
		return ev
	}
	if g.rng.Float64() < g.edgeProb {
		u := g.rng.Intn(g.net.Nodes())
		g.buf = g.net.Successors(u, g.buf)
		w := g.buf[g.rng.Intn(len(g.buf))]
		e := session.EdgeJSON{From: g.net.Label(u), To: g.net.Label(w)}
		ev.EdgeFaults = []session.EdgeJSON{e}
		g.liveEdges = append(g.liveEdges, e)
	} else {
		label := g.net.Label(g.rng.Intn(g.net.Nodes()))
		ev.NodeFaults = []string{label}
		g.liveNodes = append(g.liveNodes, label)
	}
	return ev
}

// rollback undoes next's live-fault bookkeeping for an event the server
// rejected (the fault never landed / the heal never took), so later
// heal picks and the maxLive throttle keep matching server state.
func (g *generator) rollback(ev TraceEvent) {
	if ev.Heal {
		// The heal was rejected: its fault is still live server-side.
		g.liveNodes = append(g.liveNodes, ev.NodeFaults...)
		g.liveEdges = append(g.liveEdges, ev.EdgeFaults...)
		return
	}
	for _, label := range ev.NodeFaults {
		for i, v := range g.liveNodes {
			if v == label {
				g.liveNodes = append(g.liveNodes[:i], g.liveNodes[i+1:]...)
				break
			}
		}
	}
	for _, e := range ev.EdgeFaults {
		for i, v := range g.liveEdges {
			if v == e {
				g.liveEdges = append(g.liveEdges[:i], g.liveEdges[i+1:]...)
				break
			}
		}
	}
}

// nodeLive reports whether the labeled processor is currently faulted.
func (g *generator) nodeLive(label string) bool {
	for _, v := range g.liveNodes {
		if v == label {
			return true
		}
	}
	return false
}

// pregenerate materializes a fixed-length trace (the recordable form).
func (g *generator) pregenerate(events int) *Trace {
	tr := &Trace{Topology: g.spec, Seed: g.seed}
	for i := 0; i < events; i++ {
		tr.Events = append(tr.Events, g.next())
	}
	return tr
}

func loadTrace(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tr Trace
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if tr.Topology == "" || len(tr.Events) == 0 {
		return nil, fmt.Errorf("%s: trace needs a topology and at least one event", path)
	}
	return &tr, nil
}

func writeTrace(path string, tr *Trace) error {
	data, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sample is one absorbed event's measurements.
type sample struct {
	repair     string
	ringLen    int
	lowerBound int
	serverNs   int64
	clientNs   int64
	rejected   bool
}

// runner drives one session through a trace or a live generator.
type runner struct {
	server    string
	topology  string
	name      string
	seed      int64
	interval  time.Duration
	soak      time.Duration
	keep      bool
	check     bool
	minSplice int
	// quiet suppresses the per-event table (multi-session fleet runs
	// aggregate instead).
	quiet bool

	// client, when set, is used instead of a default one — fleet runs
	// inject per-session clients so retry counters survive the run.
	client *session.Client
	// metrics counts every event as the server does (record); fleet
	// runs share one.
	metrics *obs.Registry

	events []TraceEvent // fixed trace; nil in soak mode
	gen    *generator   // soak mode source

	net     topology.RingEmbedder // resolved lazily for -check
	samples []sample

	// spliceActive tracks ladder ownership for -check: true from a
	// "splice" resolution until the next re-embed re-adopts the ring
	// for the structural tier.
	spliceActive bool
}

func (r *runner) run() error {
	if err := r.drive(); err != nil {
		return err
	}
	spliced := report(r.metrics.Snapshot(), r.samples)
	if r.check {
		if err := reportFleetMetrics(r.server); err != nil {
			return err
		}
	}
	if spliced < r.minSplice {
		return fmt.Errorf("splice tier resolved %d events, want ≥ %d (-min-splice): the repair chain may have degenerated to re-embed-only",
			spliced, r.minSplice)
	}
	return nil
}

// drive runs the session through its trace or generator, collecting
// samples without reporting (the caller aggregates).
func (r *runner) drive() error {
	ctx := context.Background()
	c := r.client
	if c == nil {
		c = &session.Client{Base: r.server}
	}
	st, err := c.Create(ctx, session.CreateRequest{Name: r.name, Topology: r.topology})
	if err != nil {
		return err
	}
	if !r.quiet {
		fmt.Printf("session %s on %s: initial ring %d nodes\n", r.name, r.topology, st.RingLength)
	}
	if !r.keep {
		defer c.Delete(ctx, r.name)
	}
	if r.check {
		if r.net, err = topology.FromSpec(r.topology); err != nil {
			return err
		}
	}

	deadline := time.Time{}
	if r.soak > 0 {
		deadline = time.Now().Add(r.soak)
	}
	if !r.quiet {
		fmt.Printf("%5s  %-5s  %-8s  %9s  %9s  %12s  %12s\n",
			"event", "kind", "repair", "ring", "bound", "server", "round-trip")
	}
	for i := 0; ; i++ {
		var ev TraceEvent
		switch {
		case r.events != nil:
			if i >= len(r.events) {
				goto done
			}
			ev = r.events[i]
		default:
			if time.Now().After(deadline) {
				goto done
			}
			ev = r.gen.next()
		}
		if r.interval > 0 && i > 0 {
			time.Sleep(r.interval)
		}
		stop, err := r.step(ctx, c, i, ev)
		if err != nil {
			return err
		}
		if stop {
			break
		}
	}
done:
	return nil
}

// step sends one event and records its sample.  It returns stop=true
// when a rejected batch should end a fixed-trace run (soak runs carry
// on; the server kept its last good ring).
func (r *runner) step(ctx context.Context, c *session.Client, i int, ev TraceEvent) (bool, error) {
	kind, send := "fault", c.AddFaults
	if ev.Heal {
		kind, send = "heal", c.RemoveFaults
	}
	start := time.Now()
	res, err := send(ctx, r.name, ev.FaultsRequest)
	clientNs := time.Since(start).Nanoseconds()
	if err != nil {
		s := sample{repair: "rejected", rejected: true, clientNs: clientNs}
		if res != nil {
			s.ringLen = res.Event.RingLength
			s.serverNs = res.Event.ElapsedNs
			if !r.quiet {
				fmt.Printf("%5d  %-5s  rejected (ring stays %d): %v\n", i+1, kind, res.Event.RingLength, err)
			}
		} else if !r.quiet {
			fmt.Printf("%5d  %-5s  rejected: %v\n", i+1, kind, err)
		}
		r.record(kind, s)
		// Rejected batches end a fixed-trace run (subsequent events were
		// generated assuming this one landed); soak runs roll the
		// generator's bookkeeping back and keep going.
		if r.soak > 0 && r.gen != nil {
			r.gen.rollback(ev)
		}
		return r.soak == 0, nil
	}
	s := sample{
		repair:     res.Event.Repair,
		ringLen:    res.Event.RingLength,
		lowerBound: res.Event.LowerBound,
		serverNs:   res.Event.ElapsedNs,
		clientNs:   clientNs,
	}
	r.record(kind, s)
	switch s.repair {
	case "splice":
		r.spliceActive = true
	case "reembed":
		r.spliceActive = false
	}
	if !r.quiet {
		fmt.Printf("%5d  %-5s  %-8s  %9d  %9d  %12s  %12s\n",
			i+1, kind, s.repair, s.ringLen, s.lowerBound,
			time.Duration(s.serverNs), time.Duration(s.clientNs))
	}
	if r.check {
		if err := r.verify(ctx, c, i); err != nil {
			return false, err
		}
	}
	return false, nil
}

// record keeps one sample of a kind ("fault" or "heal") event and
// counts it under the server's session_repair_{total,ns}{dir,tier}
// series, which report reads back.
func (r *runner) record(kind string, s sample) {
	r.samples = append(r.samples, s)
	r.metrics.Counter("session_repair_total", "dir", kind, "tier", s.repair).Inc()
	r.metrics.Histogram("session_repair_ns", "dir", kind, "tier", s.repair).Observe(s.serverNs)
}

// verify independently checks the server's ring: fetch it, verify it
// against the cumulative fault set, and compare its length to a cold
// re-embed of the same fault set (repair and recompute must not
// diverge; a cold embed that errors while the repaired ring verifies is
// fine — star absorption handles link faults the one-shot path
// rejects).
func (r *runner) verify(ctx context.Context, c *session.Client, i int) error {
	st, err := c.State(ctx, r.name)
	if err != nil {
		return err
	}
	ring := make([]int, len(st.Ring))
	for j, label := range st.Ring {
		if ring[j], err = r.net.Parse(label); err != nil {
			return fmt.Errorf("event %d: bad ring label %q: %w", i+1, label, err)
		}
	}
	pairs := make([][2]string, len(st.EdgeFaults))
	for j, e := range st.EdgeFaults {
		pairs[j] = [2]string{e.From, e.To}
	}
	faults, err := topology.ParseFaults(r.net, st.NodeFaults, pairs)
	if err != nil {
		return fmt.Errorf("event %d: bad fault labels: %w", i+1, err)
	}
	if !topology.VerifyRing(r.net, ring, faults) {
		return fmt.Errorf("event %d: VERIFY ERROR: server ring fails VerifyRing (%d nodes, %d faults)",
			i+1, len(ring), len(faults.Nodes)+len(faults.Edges))
	}
	// Length equivalence with a cold embed is an FFC-tier invariant;
	// once the splice tier owns the ring it legitimately departs from
	// the cold shape (splice rings keep necklace-mates the cold embed
	// drops and vice versa), so the gate there is the paper's dⁿ − nf
	// bound whenever the cold embed meets it.  The generic splice
	// patcher on other topologies is documented best-effort (a healed
	// node without a slot legitimately stays off-ring), so only De
	// Bruijn sessions are gated at all.
	if _, isDB := r.net.(*topology.DeBruijn); isDB {
		cold, _, coldErr := r.net.EmbedRing(faults)
		if coldErr == nil {
			bound := repair.LowerBound(r.net, faults)
			switch {
			case !r.spliceActive && len(cold) != len(ring):
				return fmt.Errorf("event %d: DIVERGENCE: repaired ring %d nodes, cold re-embed %d",
					i+1, len(ring), len(cold))
			case r.spliceActive && len(cold) >= bound && len(ring) < bound:
				return fmt.Errorf("event %d: DIVERGENCE: spliced ring %d below dⁿ−nf = %d the cold re-embed meets",
					i+1, len(ring), bound)
			}
		}
	}
	return nil
}

// report prints the per-tier resolution summary (structural "local",
// bypass "splice", "reembed"), the ladder hit rates and per-tier
// latency, all read from snap's session_repair_{total,ns}{dir,tier}
// series through the formulas GET /v1/stats uses, and the degradation
// curve endpoint from samples.  It returns the number of splice-tier
// resolutions, for the -min-splice gate.
func report(snap obs.Snapshot, samples []sample) int {
	t := session.TotalsFrom(snap)
	fmt.Println()
	fmt.Printf("events: %d  fault[local: %d  splice: %d  reembed: %d]  heal[local: %d  splice: %d  reembed: %d]  noop: %d  rejected: %d\n",
		len(samples), t.LocalRepairs, t.SpliceRepairs, t.Reembeds,
		t.LocalHeals, t.SpliceHeals, t.HealReembeds, t.Noops, t.Rejected)
	if t.LocalRepairs+t.SpliceRepairs+t.Reembeds > 0 {
		fmt.Printf("patch hit rate:   %.1f%%\n", 100*t.PatchHitRate)
	}
	if t.LocalHeals+t.SpliceHeals+t.HealReembeds > 0 {
		fmt.Printf("unpatch hit rate: %.1f%%\n", 100*t.UnpatchHitRate)
	}
	spliced := t.SpliceRepairs + t.SpliceHeals
	if pastFFC := spliced + t.Reembeds + t.HealReembeds; pastFFC > 0 {
		fmt.Printf("splice hit rate:  %.1f%% (%d of %d events past the structural tier)\n",
			100*t.SpliceHitRate, spliced, pastFFC)
	}
	// Per-tier latency through the same log-bucketed histograms the
	// server exposes at /metrics (quantile error bounded by the bucket
	// width), so this table and a fleet-wide scrape read alike.
	header := false
	for _, dir := range []string{"fault", "heal"} {
		for _, tier := range []repair.Resolution{repair.ResLocal, repair.ResSplice, repair.ResReembed} {
			h := snap.Histograms[obs.Key("session_repair_ns", "dir", dir, "tier", tier.String())]
			if h.Count == 0 {
				continue
			}
			if !header {
				fmt.Printf("%-12s %8s  %12s  %12s  %12s  %12s\n",
					"tier", "count", "mean", "p50", "p99", "p999")
				header = true
			}
			kind := tier.String()
			if dir == "heal" {
				kind = "heal-" + kind
			}
			fmt.Printf("%-12s %8d  %12s  %12s  %12s  %12s\n", kind, h.Count,
				time.Duration(h.Mean()),
				time.Duration(h.Quantile(0.50)),
				time.Duration(h.Quantile(0.99)),
				time.Duration(h.Quantile(0.999)))
		}
	}
	// Degradation: how much ring the stream cost versus the guarantee.
	var last *sample
	for i := range samples {
		if !samples[i].rejected && samples[i].ringLen > 0 {
			last = &samples[i]
		}
	}
	if last != nil {
		fmt.Printf("final ring: %d nodes (guaranteed ≥ %d)\n", last.ringLen, last.lowerBound)
	}
	return int(spliced)
}
