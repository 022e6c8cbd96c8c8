package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"debruijnring/obs"
	"debruijnring/session"
)

// ShardGroup is one consistent-hash slot of the fleet: a primary shard
// and (optionally) the replica its journal streams to.
type ShardGroup struct {
	// Name is the group's stable hash identity; session placement
	// follows it across router restarts and primary/replica swaps.
	// Empty defaults to the primary URL.
	Name string `json:"name"`
	// Primary is the owning shard's base URL.
	Primary string `json:"primary"`
	// Replica is the standby's base URL; "" leaves the group
	// unreplicated (a dead primary then just stays down).
	Replica string `json:"replica,omitempty"`
}

// RouterOptions tunes the router.
type RouterOptions struct {
	// Vnodes per group on the hash ring (<= 0 uses DefaultVnodes).
	Vnodes int
	// CheckInterval is the health-check cadence (default 2s).
	CheckInterval time.Duration
	// FailAfter is the consecutive health-check failures that trigger
	// promotion (default 3); the failover budget is roughly
	// CheckInterval*FailAfter plus the promotion itself.
	FailAfter int
	// Spares are standby shard URLs the router draws from after a
	// promotion: the promoted shard is re-targeted at a spare and
	// bootstraps it by streaming its journals, so the group returns to
	// full strength — one failure from safe again — without an operator.
	// With an empty pool a promoted group runs un-replicated (logged).
	Spares []string
	// Logf receives failover decisions; nil discards them.
	Logf func(string, ...any)
}

// group is one ShardGroup's live routing state.
type group struct {
	mu       sync.Mutex
	cfg      ShardGroup // mutable: re-replication resets primary/replica
	active   string     // base URL currently serving the group's keyspace
	promoted bool
	fails    int  // consecutive health-check failures of active
	down     bool // active failed FailAfter times and no promotion is possible

	// target is active parsed, set with it (setActiveLocked) and read
	// lock-free by the proxy on every request; nil if it did not parse.
	target atomic.Pointer[url.URL]

	requests   *obs.Counter // fleet_router_requests_total{group}
	promotions *obs.Counter // fleet_router_promotions_total{group}; survives full-strength resets
}

// newGroup returns the routing state of a group serving its primary,
// with its counters resolved in the router's registry.
func (rt *Router) newGroup(cfg ShardGroup) *group {
	g := &group{
		cfg:        cfg,
		requests:   rt.metrics.Counter("fleet_router_requests_total", "group", cfg.Name),
		promotions: rt.metrics.Counter("fleet_router_promotions_total", "group", cfg.Name),
	}
	g.setActiveLocked(cfg.Primary)
	return g
}

// setActiveLocked points the group's keyspace at base, the active URL
// and the proxy's parsed target together.
func (g *group) setActiveLocked(base string) {
	g.active = base
	target, _ := url.Parse(base) // nil when base does not parse
	g.target.Store(target)
}

func (g *group) activeURL() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.active
}

func (g *group) isDown() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.down
}

// routing is the immutable routing view: hash ring, group set, and
// proxies.  The hot path reads it through one atomic load; membership
// changes build a new view and swap the pointer (copy-on-write), so
// request routing never takes the membership lock.
type routing struct {
	hash    *Hash
	order   []string // group names, sorted — round-robin order
	groups  map[string]*group
	proxies map[string]*httputil.ReverseProxy
}

// drainView marks an in-flight rebalance: requests for moved sessions
// answer 503-with-Retry-After (the client's backoff rides them across
// the flip), and creates that would land differently under the pending
// ring are held off so no journal is stranded on the old owner.
type drainView struct {
	moved   map[string]bool
	pending *Hash
}

// Router fronts the fleet: it consistent-hashes session names to shard
// groups, proxies all /v1/sessions traffic (long-poll and SSE watch
// included) to the owning group's active shard, spreads the stateless
// one-shot endpoints round-robin, health-checks every group, promotes
// replicas of dead primaries (then re-replicates the survivor to a
// spare), and grows the shard set at runtime via POST /v1/fleet/shards
// with a drain + journal-handoff + hash-verify + flip sequence.
//
// A proxied request costs the router no per-request buffer or URL
// parse: every group's proxy copies bodies through one shared pool of
// 32 KiB buffers, and reads the group's target, parsed once whenever
// the active shard changes, through an atomic pointer.
//
// Two routers may front the same fleet with no coordination protocol:
// both converge on the same failure decisions through health checks
// and the shards' epoch gates (see EpochGate); run them behind a VIP
// or round-robin DNS.
type Router struct {
	opts RouterOptions
	view atomic.Pointer[routing]
	// drain is non-nil while a rebalance is moving sessions.
	drain atomic.Pointer[drainView]

	memberMu sync.Mutex // serializes membership changes (view swaps)

	sparesMu sync.Mutex
	spares   []string

	epochMu   sync.Mutex
	lastEpoch uint64

	health  *http.Client // health checks and status scrapes, bounded by CheckInterval
	promote *http.Client // control calls: restores replay journals and can take a while
	fanout  *http.Client // list-merge fan-out; health's timeout is too tight
	logf    func(string, ...any)

	// metrics is the router's own registry (per-group routing counters);
	// /metrics merges it with every shard's snapshot.  See metrics.go.
	metrics    *obs.Registry
	drainCount *obs.Counter

	rr   atomic.Uint64
	kick chan *group
	stop chan struct{}
	wg   sync.WaitGroup
}

// NewRouter builds a router over the groups and starts its health loop;
// Close stops it.  Group names must be unique.
func NewRouter(groups []ShardGroup, opts RouterOptions) (*Router, error) {
	if len(groups) == 0 {
		return nil, errors.New("fleet: router needs at least one shard group")
	}
	if opts.CheckInterval <= 0 {
		opts.CheckInterval = 2 * time.Second
	}
	if opts.FailAfter <= 0 {
		opts.FailAfter = 3
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rt := &Router{
		opts:    opts,
		spares:  append([]string(nil), opts.Spares...),
		health:  &http.Client{Timeout: opts.CheckInterval, Transport: fleetTransport},
		promote: &http.Client{Timeout: 60 * time.Second, Transport: fleetTransport},
		fanout:  &http.Client{Timeout: 15 * time.Second, Transport: fleetTransport},
		logf:    logf,
		kick:    make(chan *group, 64),
		stop:    make(chan struct{}),
	}
	rt.initMetrics()
	view := &routing{
		groups:  make(map[string]*group, len(groups)),
		proxies: make(map[string]*httputil.ReverseProxy, len(groups)),
	}
	names := make([]string, 0, len(groups))
	for _, cfg := range groups {
		if cfg.Name == "" {
			cfg.Name = cfg.Primary
		}
		if err := validateGroup(cfg); err != nil {
			return nil, err
		}
		if _, dup := view.groups[cfg.Name]; dup {
			return nil, fmt.Errorf("fleet: duplicate group name %q", cfg.Name)
		}
		g := rt.newGroup(cfg)
		view.groups[cfg.Name] = g
		view.proxies[cfg.Name] = rt.newProxy(g)
		names = append(names, cfg.Name)
	}
	sort.Strings(names)
	view.order = names
	view.hash = NewHash(opts.Vnodes, names...)
	rt.view.Store(view)

	rt.wg.Add(1)
	go rt.healthLoop()
	return rt, nil
}

func validateGroup(cfg ShardGroup) error {
	if cfg.Primary == "" {
		return fmt.Errorf("fleet: group %q has no primary URL", cfg.Name)
	}
	if _, err := url.Parse(cfg.Primary); err != nil {
		return fmt.Errorf("fleet: group %q primary: %w", cfg.Name, err)
	}
	return nil
}

// Close stops the health loop and any re-replication watchers
// (in-flight proxied requests finish on their own).
func (rt *Router) Close() {
	close(rt.stop)
	rt.wg.Wait()
}

// Lookup returns the group owning a session name.
func (rt *Router) Lookup(name string) ShardGroup {
	view := rt.view.Load()
	g := view.groups[view.hash.Lookup(name)]
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cfg
}

// nextEpoch mints a control-plane epoch: wall-clock milliseconds,
// forced monotonic per router.  Two uncoordinated routers' epochs are
// ordered by time (within clock skew), so the later decision wins at
// each shard's gate and the loser adopts it — see EpochGate.
func (rt *Router) nextEpoch() uint64 {
	rt.epochMu.Lock()
	defer rt.epochMu.Unlock()
	e := uint64(time.Now().UnixMilli())
	if e <= rt.lastEpoch {
		e = rt.lastEpoch + 1
	}
	rt.lastEpoch = e
	return e
}

// proxyBufSize is the size of the buffers proxies copy bodies through,
// httputil.ReverseProxy's own default.
const proxyBufSize = 32 << 10

// proxyBufs is the one BufferPool every group's proxy shares.  It pools
// array pointers, so Get and Put allocate nothing: the slice a proxy
// hands back converts to the array it was cut from.
type proxyBufs struct{ pool sync.Pool }

var proxyBufPool = &proxyBufs{pool: sync.Pool{New: func() any { return new([proxyBufSize]byte) }}}

func (p *proxyBufs) Get() []byte { return p.pool.Get().(*[proxyBufSize]byte)[:] }

func (p *proxyBufs) Put(b []byte) {
	if len(b) == proxyBufSize {
		p.pool.Put((*[proxyBufSize]byte)(b))
	}
}

// newProxy builds the group's reverse proxy.  The target is the group's
// parsed active URL, loaded per request without a lock or a parse, so a
// promotion re-targets every subsequent request without touching the
// proxy.  Bodies are copied through the shared proxyBufPool rather than
// a fresh 32 KiB buffer per request.  FlushInterval -1 streams SSE
// watch frames through unbuffered.
func (rt *Router) newProxy(g *group) *httputil.ReverseProxy {
	return &httputil.ReverseProxy{
		Transport: fleetTransport,
		Rewrite: func(pr *httputil.ProxyRequest) {
			target := g.target.Load()
			if target == nil {
				return
			}
			pr.SetURL(target)
			pr.Out.Host = target.Host
		},
		BufferPool:    proxyBufPool,
		FlushInterval: -1,
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			// A proxy error is an early fault signal: wake the health
			// loop instead of waiting out the cadence.  The client sees
			// 502 and retries through the failover window.
			select {
			case rt.kick <- g:
			default:
			}
			replicaError(w, http.StatusBadGateway,
				fmt.Errorf("fleet: shard %s unreachable: %w", g.cfg.Name, err))
		},
	}
}

// ServeHTTP routes: /v1/sessions traffic by consistent hash of the
// session name, the stateless endpoints round-robin across groups, and
// the router's own health, fleet-status and membership endpoints.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		w.Write([]byte("ok\n"))
	case path == "/v1/fleet":
		rt.serveFleetStatus(w)
	case path == "/metrics":
		rt.serveMetrics(w, true)
	case path == "/v1/metrics":
		rt.serveMetrics(w, false)
	case path == "/v1/fleet/shards":
		if r.Method != http.MethodPost {
			replicaError(w, http.StatusMethodNotAllowed, errors.New("POST a shard group to add it"))
			return
		}
		rt.handleAddShard(w, r)
	case path == "/v1/sessions":
		if r.Method == http.MethodPost {
			rt.routeCreate(w, r)
			return
		}
		rt.serveList(w, r)
	case strings.HasPrefix(path, "/v1/sessions/"):
		seg := strings.SplitN(strings.TrimPrefix(path, "/v1/sessions/"), "/", 2)[0]
		name, err := url.PathUnescape(seg)
		if err != nil || name == "" {
			replicaError(w, http.StatusBadRequest, fmt.Errorf("bad session name %q", seg))
			return
		}
		if d := rt.drain.Load(); d != nil && d.moved[name] {
			rt.routerDraining(w, name)
			return
		}
		view := rt.view.Load()
		rt.proxyTo(view, view.hash.Lookup(name), w, r)
	default:
		// Stateless endpoints (embed, verify, stats, …): any shard
		// answers; spread the load.
		view := rt.view.Load()
		rt.proxyTo(view, rt.nextGroup(view), w, r)
	}
}

// routerDraining answers a request for a session that is mid-handoff:
// 503 with Retry-After and the draining marker, so the client's backoff
// (session.Client counts these separately as ErrDraining) carries it
// across the routing flip.
func (rt *Router) routerDraining(w http.ResponseWriter, name string) {
	rt.drainCount.Inc()
	w.Header().Set("Retry-After", "1")
	w.Header().Set("X-Fleet-Draining", "1")
	replicaError(w, http.StatusServiceUnavailable,
		fmt.Errorf("fleet: session %q is draining (rebalance in progress)", name))
}

// routeCreate peeks the create payload for the session name — the only
// routing key POST /v1/sessions carries — then forwards the request,
// body restored, to the owning shard.
func (rt *Router) routeCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		replicaError(w, http.StatusBadRequest, fmt.Errorf("reading create body: %w", err))
		return
	}
	var req struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.Name == "" {
		replicaError(w, http.StatusBadRequest, errors.New("create payload names no session"))
		return
	}
	view := rt.view.Load()
	if d := rt.drain.Load(); d != nil && d.pending.Lookup(req.Name) != view.hash.Lookup(req.Name) {
		// Creating on the old owner would strand the journal the moment
		// the pending ring flips; hold the create until it does.
		rt.routerDraining(w, req.Name)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	rt.proxyTo(view, view.hash.Lookup(req.Name), w, r)
}

// serveList fans GET /v1/sessions out to every group and merges the
// summaries sorted by name.  Groups that fail to answer are skipped and
// named in the X-Fleet-Partial header — a session on a mid-failover
// group briefly disappears from listings rather than failing them.
func (rt *Router) serveList(w http.ResponseWriter, r *http.Request) {
	view := rt.view.Load()
	type result struct {
		name     string
		sessions []session.StateJSON
		err      error
	}
	results := make(chan result, len(view.order))
	for _, name := range view.order {
		g := view.groups[name]
		go func() {
			sessions, err := rt.listSessions(g.activeURL())
			results <- result{name: name, sessions: sessions, err: err}
		}()
	}
	merged := []session.StateJSON{}
	var partial []string
	for range view.order {
		res := <-results
		if res.err != nil {
			partial = append(partial, res.name)
			continue
		}
		merged = append(merged, res.sessions...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Name < merged[j].Name })
	if len(partial) > 0 {
		sort.Strings(partial)
		w.Header().Set("X-Fleet-Partial", strings.Join(partial, ","))
	}
	writeReplicaJSON(w, merged)
}

// listSessions lists one shard's sessions.
func (rt *Router) listSessions(base string) ([]session.StateJSON, error) {
	var sessions []session.StateJSON
	err := (&ReplicaClient{Base: base, HTTP: rt.fanout}).call(http.MethodGet, "/v1/sessions", nil, &sessions)
	return sessions, err
}

func (rt *Router) proxyTo(view *routing, groupName string, w http.ResponseWriter, r *http.Request) {
	g, ok := view.groups[groupName]
	if !ok {
		replicaError(w, http.StatusInternalServerError, fmt.Errorf("no group %q", groupName))
		return
	}
	if g.isDown() {
		replicaError(w, http.StatusServiceUnavailable,
			fmt.Errorf("fleet: shard group %s is down (no replica to promote)", groupName))
		return
	}
	g.requests.Inc()
	view.proxies[groupName].ServeHTTP(w, r)
}

// nextGroup round-robins the stateless endpoints over non-down groups.
func (rt *Router) nextGroup(view *routing) string {
	n := len(view.order)
	start := int(rt.rr.Add(1))
	for i := 0; i < n; i++ {
		name := view.order[(start+i)%n]
		if !view.groups[name].isDown() {
			return name
		}
	}
	return view.order[start%n]
}

// GroupStatus is one group's row in the fleet-status report.
type GroupStatus struct {
	Name       string `json:"name"`
	Primary    string `json:"primary"`
	Replica    string `json:"replica,omitempty"`
	Active     string `json:"active"`
	Promoted   bool   `json:"promoted,omitempty"`
	Promotions int    `json:"promotions,omitempty"`
	Down       bool   `json:"down,omitempty"`
	Fails      int    `json:"consecutive_fails,omitempty"`
	Requests   int64  `json:"requests"`
	// ReplicaState / ReplicaLag mirror the active shard's
	// /v1/replication report: "ok" means every acknowledged event is on
	// two processes; "catchup" means the standby is being re-streamed
	// and ReplicaLag events are single-copy meanwhile.
	ReplicaState string `json:"replica_state,omitempty"`
	ReplicaLag   int64  `json:"replica_lag,omitempty"`
}

// Status returns the fleet-status rows, the /v1/fleet payload: each
// group's routing state, merged with its active shard's replication
// health (fetched in parallel, best-effort: an unreachable shard just
// reports no replica state).
func (rt *Router) Status() []GroupStatus {
	view := rt.view.Load()
	out := make([]GroupStatus, 0, len(view.order))
	for _, name := range view.order {
		g := view.groups[name]
		g.mu.Lock()
		out = append(out, GroupStatus{
			Name:       name,
			Primary:    g.cfg.Primary,
			Replica:    g.cfg.Replica,
			Active:     g.active,
			Promoted:   g.promoted,
			Promotions: int(g.promotions.Value()),
			Down:       g.down,
			Fails:      g.fails,
			Requests:   g.requests.Value(),
		})
		g.mu.Unlock()
	}
	var wg sync.WaitGroup
	for i := range out {
		if out[i].Down {
			continue
		}
		wg.Add(1)
		go func(row *GroupStatus) {
			defer wg.Done()
			rs, err := (&ReplicaClient{Base: row.Active, HTTP: rt.health}).Replication()
			if err != nil {
				return
			}
			row.ReplicaState = string(rs.State)
			row.ReplicaLag = rs.Lag
		}(&out[i])
	}
	wg.Wait()
	return out
}

func (rt *Router) serveFleetStatus(w http.ResponseWriter) {
	writeReplicaJSON(w, rt.Status())
}

// healthLoop drives the failure detector: every CheckInterval (or
// immediately on a proxy-error kick) each group's active shard is
// probed; FailAfter consecutive failures promote the replica (or mark
// an unreplicated group down).  Recovery of the active shard clears the
// failure count — but a dead PRIMARY whose group already promoted stays
// retired even if it comes back: the replica owns the journals now (and
// the shard fences itself against exactly that return — see
// ReplicatedStore).
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.opts.CheckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case g := <-rt.kick:
			rt.checkGroup(g)
		case <-ticker.C:
			view := rt.view.Load()
			for _, name := range view.order {
				rt.checkGroup(view.groups[name])
			}
		}
	}
}

func (rt *Router) checkGroup(g *group) {
	ok := rt.probe(g.activeURL())
	g.mu.Lock()
	if ok {
		g.fails = 0
		if g.down {
			rt.logf("fleet: group %s recovered (%s answering)", g.cfg.Name, g.active)
		}
		g.down = false
		g.mu.Unlock()
		return
	}
	g.fails++
	promotable := !g.promoted && g.cfg.Replica != "" && g.fails >= rt.opts.FailAfter
	failed := g.fails
	name, primary, replica := g.cfg.Name, g.cfg.Primary, g.cfg.Replica
	g.mu.Unlock()

	if !promotable {
		if failed >= rt.opts.FailAfter {
			g.mu.Lock()
			if !g.down {
				rt.logf("fleet: group %s is down after %d failed checks (no replica to promote)", name, failed)
			}
			g.down = true
			g.mu.Unlock()
		}
		return
	}

	rt.logf("fleet: group %s primary %s failed %d checks; promoting replica %s",
		name, primary, failed, replica)
	rc := &ReplicaClient{Base: replica, HTTP: rt.promote}
	resp, err := rc.Promote(rt.nextEpoch())
	g.mu.Lock()
	if err != nil {
		rt.logf("fleet: group %s promotion failed: %v", name, err)
		g.down = true
		g.mu.Unlock()
		return
	}
	g.setActiveLocked(replica)
	g.promoted = true
	g.promotions.Inc()
	g.fails = 0
	g.down = false
	g.mu.Unlock()
	if resp.Already {
		rt.logf("fleet: group %s now served by %s (already promoted — a peer router won the race)", name, replica)
	} else {
		rt.logf("fleet: group %s now served by %s (%d session(s) restored, %d restore error(s))",
			name, replica, resp.Restored, len(resp.Errors))
	}

	// Close the durability gap: assign the survivor a fresh standby.
	rt.wg.Add(1)
	go rt.reReplicate(g)
}

// reReplicate re-arms a freshly promoted group with a standby from the
// spares pool: the promoted shard is re-targeted at the spare, its
// store streams every journal over (catch-up bootstrap), and once the
// shard reports replication "ok" the group is reset to full strength —
// promoted flag cleared, so the health loop can survive (and promote
// through) the NEXT failure too.
func (rt *Router) reReplicate(g *group) {
	defer rt.wg.Done()
	g.mu.Lock()
	active, name := g.active, g.cfg.Name
	g.mu.Unlock()

	spare := rt.takeSpare()
	if spare == "" {
		rt.logf("fleet: group %s has no spare standby; running un-replicated until one is added", name)
		return
	}
	rc := &ReplicaClient{Base: active, HTTP: rt.promote}
	if _, err := rc.SetTarget(spare, rt.nextEpoch()); err != nil {
		var pe *PeerError
		if errors.As(err, &pe) && pe.Status == http.StatusConflict && pe.Target != "" {
			// A peer router re-targeted first; adopt its assignment.
			rt.logf("fleet: group %s already re-targeted to %s by a peer router; adopting", name, pe.Target)
			rt.returnSpare(spare)
			spare = pe.Target
		} else {
			rt.returnSpare(spare)
			rt.logf("fleet: group %s re-replication to %s failed: %v", name, spare, err)
			return
		}
	} else {
		rt.logf("fleet: group %s re-replicating to spare %s", name, spare)
	}

	// Wait for the bootstrap to converge before declaring the group
	// safe again; acknowledged events are single-copy until then.
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		select {
		case <-rt.stop:
			return
		case <-time.After(rt.opts.CheckInterval / 4):
		}
		rs, err := rc.Replication()
		if err != nil || rs.State != ReplicaOK {
			continue
		}
		if rs.Target != "" && rs.Target != spare {
			// Another router's assignment won while we waited.
			rt.returnSpare(spare)
			spare = rs.Target
		}
		g.mu.Lock()
		g.cfg.Primary = active
		g.cfg.Replica = spare
		g.promoted = false
		g.fails = 0
		g.mu.Unlock()
		rt.logf("fleet: group %s back to full strength (primary %s, standby %s); a second failure is survivable", name, active, spare)
		return
	}
	rt.logf("fleet: group %s re-replication to %s did not converge before the deadline; group remains promoted and un-replicated", name, spare)
}

func (rt *Router) takeSpare() string {
	rt.sparesMu.Lock()
	defer rt.sparesMu.Unlock()
	if len(rt.spares) == 0 {
		return ""
	}
	spare := rt.spares[0]
	rt.spares = rt.spares[1:]
	return spare
}

func (rt *Router) returnSpare(spare string) {
	rt.sparesMu.Lock()
	defer rt.sparesMu.Unlock()
	rt.spares = append(rt.spares, spare)
}

// AddShard grows the fleet at runtime: validate and health-check the
// new group, compute the keyspace that moves to it under the extended
// hash ring, drain those sessions (503-retry), hand each journal off to
// the new owner (full stream through the replica-append path), verify
// the new owner's hash-verified replay against the journal's final seq
// and ring hash, then flip the routing view and drop the old copies.
// Sessions outside the moved keyspace are untouched and never see an
// error.  On any hand-off failure the whole rebalance rolls back: moved
// sessions are re-adopted by their old owners and the new copies
// dropped.
func (rt *Router) AddShard(cfg ShardGroup) error {
	rt.memberMu.Lock()
	defer rt.memberMu.Unlock()

	view := rt.view.Load()
	if cfg.Name == "" {
		cfg.Name = cfg.Primary
	}
	if err := validateGroup(cfg); err != nil {
		return err
	}
	if _, dup := view.groups[cfg.Name]; dup {
		return fmt.Errorf("fleet: group %q already exists", cfg.Name)
	}
	if !rt.probe(cfg.Primary) {
		return fmt.Errorf("fleet: new shard %s is not answering health checks", cfg.Primary)
	}

	order := append(append([]string(nil), view.order...), cfg.Name)
	sort.Strings(order)
	pending := NewHash(rt.opts.Vnodes, order...)

	// Discover the moved keyspace: sessions whose owner under the
	// extended ring is the new group.
	type movedSession struct {
		name string
		src  *group
	}
	var moved []movedSession
	for _, gname := range view.order {
		g := view.groups[gname]
		sessions, err := rt.listSessions(g.activeURL())
		if err != nil {
			return fmt.Errorf("fleet: listing sessions on group %s: %w", gname, err)
		}
		for _, st := range sessions {
			if pending.Lookup(st.Name) == cfg.Name {
				moved = append(moved, movedSession{name: st.Name, src: g})
			}
		}
	}

	// Drain: writes (and reads) to the moved keyspace now answer
	// 503-retry; everything else proceeds normally.
	movedSet := make(map[string]bool, len(moved))
	for _, m := range moved {
		movedSet[m.name] = true
	}
	rt.drain.Store(&drainView{moved: movedSet, pending: pending})
	defer rt.drain.Store(nil)
	rt.logf("fleet: adding group %s (%s): %d session(s) moving", cfg.Name, cfg.Primary, len(moved))

	newShard := &ReplicaClient{Base: cfg.Primary, HTTP: rt.promote}
	handedOff := 0
	var failure error
	for _, m := range moved {
		src := &ReplicaClient{Base: m.src.activeURL(), HTTP: rt.promote}
		ho, err := src.Handoff(m.name, cfg.Primary, rt.nextEpoch())
		if err != nil {
			failure = fmt.Errorf("fleet: handoff of %s from group %s: %w", m.name, m.src.cfg.Name, err)
			handedOff++ // the source released it; roll this one back too
			break
		}
		ad, err := newShard.Adopt(m.name, rt.nextEpoch())
		if err != nil {
			failure = fmt.Errorf("fleet: adopt of %s on %s: %w", m.name, cfg.Primary, err)
			handedOff++
			break
		}
		if ad.Seq != ho.Seq || ad.RingHash != ho.RingHash || ho.RingHash == "" {
			failure = fmt.Errorf("fleet: handoff verification of %s failed: journal seq %d hash %q, replayed seq %d hash %q",
				m.name, ho.Seq, ho.RingHash, ad.Seq, ad.RingHash)
			handedOff++
			break
		}
		handedOff++
	}

	if failure != nil {
		rt.logf("fleet: rebalance aborted: %v; rolling back %d hand-off(s)", failure, handedOff)
		for _, m := range moved[:handedOff] {
			src := &ReplicaClient{Base: m.src.activeURL(), HTTP: rt.promote}
			if _, err := src.Adopt(m.name, rt.nextEpoch()); err != nil {
				rt.logf("fleet: rollback: re-adopt %s on group %s: %v", m.name, m.src.cfg.Name, err)
			}
			if err := newShard.Forget(m.name); err != nil {
				rt.logf("fleet: rollback: forget %s on %s: %v", m.name, cfg.Primary, err)
			}
		}
		return failure
	}

	// Flip: copy-on-write a new routing view including the new group.
	g := rt.newGroup(cfg)
	next := &routing{
		hash:    pending,
		order:   order,
		groups:  make(map[string]*group, len(view.groups)+1),
		proxies: make(map[string]*httputil.ReverseProxy, len(view.proxies)+1),
	}
	for name, og := range view.groups {
		next.groups[name] = og
		next.proxies[name] = view.proxies[name]
	}
	next.groups[cfg.Name] = g
	next.proxies[cfg.Name] = rt.newProxy(g)
	rt.view.Store(next)

	// Post-flip cleanup: the old owners (and their standbys) drop the
	// moved journals.  Best-effort — a leftover journal is fenced by the
	// hand-off marker on the shard and never routed to.
	for _, m := range moved {
		src := &ReplicaClient{Base: m.src.activeURL(), HTTP: rt.promote}
		if err := src.Forget(m.name); err != nil {
			rt.logf("fleet: post-flip forget of %s on group %s: %v", m.name, m.src.cfg.Name, err)
		}
	}
	rt.logf("fleet: group %s joined: %d session(s) moved, hash ring now %d group(s)", cfg.Name, len(moved), len(order))
	return nil
}

// handleAddShard is POST /v1/fleet/shards: the HTTP face of AddShard.
func (rt *Router) handleAddShard(w http.ResponseWriter, r *http.Request) {
	var cfg ShardGroup
	if !decodeBody(w, r, 1<<16, "shard group", &cfg) {
		return
	}
	if err := rt.AddShard(cfg); err != nil {
		replicaError(w, http.StatusConflict, err)
		return
	}
	rt.serveFleetStatus(w)
}

// probe reports whether the shard's health endpoint answers.
func (rt *Router) probe(base string) bool {
	return (&ReplicaClient{Base: base, HTTP: rt.health}).call(http.MethodGet, "/healthz", nil, nil) == nil
}
