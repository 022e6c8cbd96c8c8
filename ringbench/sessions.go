package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"slices"
	"time"

	"debruijnring/fleet"
	"debruijnring/session"
	"debruijnring/topology"
)

// sessionsConfig shapes a workload of fault/heal events and ring reads
// against live sessions served over HTTP.
type sessionsConfig struct {
	d, n     int
	sessions int
	// fleet puts a router in front of two shard groups, each a primary
	// replicating synchronously to a standby; otherwise one journaled
	// shard serves every session.
	fleet bool
	// rate > 0 runs an open loop at rate ops/s, readShare of them reads;
	// rate == 0 runs one closed-loop client per connection, each owning
	// sessions/conns sessions, whose every readEvery-th op is a read.
	rate      float64
	readShare float64
	readEvery int
	maxLive   int // live faults per session never exceed this (≤ n)
	warmup    int // events per session during set-up
	replayCap int // events the traced run replays through the layers
	embedSets int // fault sets the traced run embeds directly
}

// sessState is the benchmark's model of one session.  plan is the fault
// set as the generator has scheduled it; the rest is what the server has
// acknowledged.  Each session's ops run on one goroutine at a time, in
// order, so the acknowledged side needs no lock.
type sessState struct {
	name   string
	plan   []int
	faults []int
	seq    uint64
	hash   string
	log    []ackedEvent
}

// ackedEvent is one acknowledged event, kept for the traced run's replay.
type ackedEvent struct {
	heal   bool
	node   int
	hash   string
	faults []int // after the event
}

type sessionsBench struct {
	cfg     sessionsConfig
	net     *topology.DeBruijn
	spec    string
	conns   int
	rec     *recorder
	cl      *client
	sess    []*sessState
	rng     *rand.Rand   // open-loop generator
	crng    []*rand.Rand // closed-loop clients
	cops    []int        // ops issued per closed-loop client
	servers []*server
	router  *fleet.Router
	prim    []*fleet.Shard
	standby []*fleet.Shard
	sbDirs  map[string]string // standby URL -> journal dir
}

func setupSessions(cfg sessionsConfig, seed int64, dir string, conns int, rec *recorder) (b *sessionsBench, err error) {
	spec := fmt.Sprintf("debruijn(%d,%d)", cfg.d, cfg.n)
	net, err := topology.NewDeBruijn(cfg.d, cfg.n)
	if err != nil {
		return nil, err
	}
	conns = min(conns, cfg.sessions) // every client owns at least one session
	b = &sessionsBench{cfg: cfg, net: net, spec: spec, conns: conns, rec: rec,
		rng: rand.New(rand.NewSource(seed)), sbDirs: make(map[string]string)}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	for c := 0; c < conns; c++ {
		b.crng = append(b.crng, rand.New(rand.NewSource(seed*1000003+int64(c)+1)))
	}
	b.cops = make([]int, conns)

	base := ""
	if cfg.fleet {
		var groups []fleet.ShardGroup
		for g := 0; g < 2; g++ {
			sbDir := filepath.Join(dir, fmt.Sprintf("g%d-standby", g))
			sb, err := b.shard(fleet.ShardConfig{JournalDir: sbDir, Standby: true}, "standby", &b.standby)
			if err != nil {
				return b, err
			}
			b.sbDirs[sb.url] = sbDir
			pr, err := b.shard(fleet.ShardConfig{JournalDir: filepath.Join(dir, fmt.Sprintf("g%d-primary", g)), ReplicateTo: sb.url}, "primary", &b.prim)
			if err != nil {
				return b, err
			}
			groups = append(groups, fleet.ShardGroup{Name: fmt.Sprintf("g%d", g), Primary: pr.url, Replica: sb.url})
		}
		if b.router, err = fleet.NewRouter(groups, fleet.RouterOptions{}); err != nil {
			return b, err
		}
		srv, err := serve(rec.middleware("router", b.router))
		if err != nil {
			return b, err
		}
		b.servers = append(b.servers, srv)
		base = srv.url
	} else {
		srv, err := b.shard(fleet.ShardConfig{JournalDir: filepath.Join(dir, "primary")}, "primary", &b.prim)
		if err != nil {
			return b, err
		}
		base = srv.url
	}
	b.cl = newClient(base, conns, rec)

	for k := 0; k < cfg.sessions; k++ {
		s := &sessState{name: fmt.Sprintf("s%02d", k)}
		var st session.StateJSON
		if err := b.cl.call(http.MethodPost, "/v1/sessions", session.CreateRequest{Name: s.name, Topology: spec}, &st, http.StatusCreated); err != nil {
			return b, err
		}
		s.seq, s.hash = st.Seq, st.RingHash
		b.sess = append(b.sess, s)
	}
	warm := rand.New(rand.NewSource(^seed))
	errs := &errLog{}
	clk := realClock{start: time.Now()}
	for i := 0; i < cfg.warmup; i++ {
		for k, s := range b.sess {
			execute(clk, b.eventJob(k, s, warm), 0, errs)
		}
	}
	if errs.n > 0 {
		return b, fmt.Errorf("warm-up: %d failed ops, first: %s", errs.n, errs.msgs[0])
	}
	return b, nil
}

// offPath: without a router there is no router hop and no standby.
func (b *sessionsBench) offPath() ([]string, int, int) {
	if b.router == nil {
		return []string{"fleet."}, b.cfg.d, b.cfg.n
	}
	return nil, b.cfg.d, b.cfg.n
}

// shard starts one fleet shard on its own listener.
func (b *sessionsBench) shard(cfg fleet.ShardConfig, layer string, into *[]*fleet.Shard) (*server, error) {
	sh, err := fleet.NewShard(cfg)
	if err != nil {
		return nil, err
	}
	*into = append(*into, sh)
	srv, err := serve(b.rec.middleware(layer, sh.Handler()))
	if err != nil {
		return nil, err
	}
	b.servers = append(b.servers, srv)
	return srv, nil
}

// close stops the client, every listener, the router and the shards —
// primaries before standbys, since a closing primary's final snapshots
// still replicate.
func (b *sessionsBench) close() {
	if b.cl != nil {
		b.cl.close()
	}
	for i := len(b.servers) - 1; i >= 0; i-- {
		b.servers[i].close()
	}
	if b.router != nil {
		b.router.Close()
	}
	for _, sh := range b.prim {
		sh.Close()
	}
	for _, sh := range b.standby {
		sh.Close()
	}
}

// eventJob schedules a single-node fault or heal on s, keeping at most
// maxLive live faults.
func (b *sessionsBench) eventJob(key int, s *sessState, rng *rand.Rand) job {
	heal := len(s.plan) == b.cfg.maxLive || (len(s.plan) > 0 && rng.Intn(2) == 0)
	var node int
	if heal {
		node = s.plan[rng.Intn(len(s.plan))]
		s.plan = slices.DeleteFunc(slices.Clone(s.plan), func(v int) bool { return v == node })
	} else {
		for node = rng.Intn(b.net.Nodes()); slices.Contains(s.plan, node); node = rng.Intn(b.net.Nodes()) {
		}
		s.plan = append(slices.Clone(s.plan), node)
	}
	after := s.plan
	method := http.MethodPost
	if heal {
		method = http.MethodDelete
	}
	req := session.FaultsRequest{NodeFaults: []string{b.net.Label(node)}}
	var resp session.FaultsResponse
	return job{kind: "event", key: key,
		run: func() error {
			return b.cl.call(method, "/v1/sessions/"+s.name+"/faults", req, &resp, http.StatusOK)
		},
		check: func() error { return s.ack(b.net, resp.Event, heal, node, after) },
	}
}

// ack applies an acknowledged event to the model and checks it: the
// batch was absorbed, seq grew, the reported bound is dⁿ − nf for the
// expected fault set, and the ring meets it.
func (s *sessState) ack(net *topology.DeBruijn, ev session.Event, heal bool, node int, after []int) error {
	prev := s.seq
	s.seq, s.hash, s.faults = ev.Seq, ev.RingHash, after
	s.log = append(s.log, ackedEvent{heal: heal, node: node, hash: ev.RingHash, faults: after})
	switch {
	case ev.Repair == "rejected" || ev.Repair == "":
		return fmt.Errorf("%s seq %d: batch not absorbed (%q): %s", s.name, ev.Seq, ev.Repair, ev.Error)
	case ev.Seq <= prev:
		return fmt.Errorf("%s: seq %d after %d", s.name, ev.Seq, prev)
	case ev.LowerBound != lowerBound(net, len(after)):
		return fmt.Errorf("%s seq %d: lower bound %d, want %d for faults %v", s.name, ev.Seq, ev.LowerBound, lowerBound(net, len(after)), after)
	}
	if err := checkLength(net, ev.RingLength, after); err != nil {
		return fmt.Errorf("%s seq %d: %w", s.name, ev.Seq, err)
	}
	return nil
}

// readJob fetches s with its ring.
func (b *sessionsBench) readJob(key int, s *sessState) job {
	var st session.StateJSON
	return job{kind: "read", key: key,
		run: func() error {
			return b.cl.call(http.MethodGet, "/v1/sessions/"+s.name, nil, &st, http.StatusOK)
		},
		check: func() error { return s.checkState(b.net, &st) },
	}
}

// checkState verifies a fetched session against the model: the last
// acknowledged seq and ring hash, and a fault-free ring meeting the
// bound.
func (s *sessState) checkState(net *topology.DeBruijn, st *session.StateJSON) error {
	if st.Seq != s.seq || st.RingHash != s.hash {
		return fmt.Errorf("%s: state at seq %d hash %s, last ack seq %d hash %s", s.name, st.Seq, st.RingHash, s.seq, s.hash)
	}
	ring, err := parseRing(net, st.Ring)
	if err == nil && len(ring) != st.RingLength {
		err = fmt.Errorf("ring of %d labels, ring_length %d", len(ring), st.RingLength)
	}
	if err == nil {
		err = checkRing(net, ring, s.faults)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	return nil
}

// load runs the timed window [from, until).
func (b *sessionsBench) load(clk clock, from, until time.Duration, errs *errLog) loadResult {
	if b.cfg.rate > 0 {
		interval := time.Duration(float64(time.Second) / b.cfg.rate)
		ol := openLoop{clk: clk, interval: interval, senders: b.conns}
		recs, backlog := ol.run(from, int((until-from)/interval), func(int) job {
			k := b.rng.Intn(len(b.sess))
			if b.rng.Float64() < b.cfg.readShare {
				return b.readJob(k, b.sess[k])
			}
			return b.eventJob(k, b.sess[k], b.rng)
		}, errs)
		return loadResult{recs: recs, backlogMax: backlog}
	}
	recs, checkMean := closedLoop(clk, b.conns, until, func(c, _ int) job {
		i := b.cops[c]
		b.cops[c]++
		own := len(b.sess) / b.conns
		k := c + b.conns*(i%own)
		if i%b.cfg.readEvery == b.cfg.readEvery-1 {
			return b.readJob(k, b.sess[k])
		}
		return b.eventJob(k, b.sess[k], b.crng[c])
	}, errs)
	return loadResult{recs: recs, checkMean: checkMean, backlogMax: b.conns}
}

// verify is the untimed end-of-run oracle: every session's ring is
// fetched and checked against the model, every primary replicates with
// zero lag, and every standby's journal ends at the last acknowledged
// seq and ring hash.
func (b *sessionsBench) verify(errs *errLog) {
	for _, s := range b.sess {
		var st session.StateJSON
		err := b.cl.call(http.MethodGet, "/v1/sessions/"+s.name, nil, &st, http.StatusOK)
		if err == nil {
			err = s.checkState(b.net, &st)
		}
		if err == nil && b.router != nil {
			err = b.checkStandby(s)
		}
		if err != nil {
			errs.add("final", err)
		}
	}
	for _, sh := range b.prim {
		if st := sh.Replication(); b.router != nil && (st.State != fleet.ReplicaOK || st.Lag != 0) {
			errs.add("final", fmt.Errorf("replication %s with lag %d", st.State, st.Lag))
		}
	}
}

func (b *sessionsBench) checkStandby(s *sessState) error {
	dir, ok := b.sbDirs[b.router.Lookup(s.name).Replica]
	if !ok {
		return errors.New(s.name + ": no standby")
	}
	evs, err := session.NewDirStore(dir).Load(s.name)
	if err != nil {
		return err
	}
	if len(evs) == 0 {
		return errors.New(s.name + ": standby journal is empty")
	}
	if last := evs[len(evs)-1]; last.Seq != s.seq || last.RingHash != s.hash {
		return fmt.Errorf("%s: standby journal ends at seq %d hash %s, last ack seq %d hash %s", s.name, last.Seq, last.RingHash, s.seq, s.hash)
	}
	return nil
}
