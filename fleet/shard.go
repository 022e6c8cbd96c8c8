package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"debruijnring/engine"
	"debruijnring/obs"
	"debruijnring/session"
)

// ShardConfig assembles one fleet worker process.
type ShardConfig struct {
	// JournalDir is the local journal directory; "" keeps sessions
	// in-memory (then neither replication nor replica ingest works).
	JournalDir string
	// ReplicateTo is the peer replica's base URL (e.g.
	// "http://replica1:8080"); "" starts with outbound replication off.
	// Either way the store supports runtime re-targeting
	// (POST /v1/replication/target), so a promoted standby can be
	// assigned a fresh replica without a restart.
	ReplicateTo string
	// Standby suppresses the startup Restore: a standby shard holds its
	// journals cold until the router promotes it.  A primary restores
	// its own journals at startup as before.
	Standby bool
	// SnapshotEvery / EventBuffer are passed to the session manager.
	SnapshotEvery int
	EventBuffer   int
	// Workers / EmbedWorkers / CacheSize are passed to the engine
	// (EmbedWorkers bounds the intra-embed BFS parallelism of adapters
	// that shard internally; 0 = GOMAXPROCS, 1 = serial).
	Workers      int
	EmbedWorkers int
	CacheSize    int
	// Logf receives operational complaints; nil discards them.
	Logf func(string, ...any)
}

// Shard is one assembled fleet worker: engine, session manager wired
// through the replicated store, the replica ingest side, and the
// control endpoints a router drives (promotion, replication
// re-targeting, rebalance hand-offs).  cmd/ringsrv mounts these next to
// its one-shot embedding endpoints; tests and benchmarks serve Handler
// directly.
type Shard struct {
	Engine   *engine.Engine
	Sessions *session.Manager
	Replica  *Replica
	// Gate epoch-guards the control endpoints against dueling routers.
	Gate *EpochGate
	// Restored counts the sessions brought back hot at startup.
	Restored int
	// RestoreErrors carries the journals that failed to restore.
	RestoreErrors []error

	local session.Store    // raw on-disk store (replica ingest side)
	repl  *ReplicatedStore // the manager's store; nil without a journal
	logf  func(string, ...any)

	demotions atomic.Int64

	// handedOff names sessions released by a rebalance hand-off whose
	// journals are still here: a straggling request that raced the
	// router's drain gets 503-retry instead of a 404, and rides its
	// backoff over to the new owner.  Cleared by forget (flip succeeded)
	// or a local adopt (flip rolled back).
	hoMu      sync.Mutex
	handedOff map[string]bool
}

// NewShard builds a shard from the config: local store, replication
// wrapper, manager, replica ingest, epoch gate, and (unless Standby)
// the startup restore — guarded by a peer check, so an ex-primary
// restarting after its replica was promoted demotes instead of serving
// stale sessions.
func NewShard(cfg ShardConfig) (*Shard, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	eng := engine.New(engine.Options{Workers: cfg.Workers, EmbedWorkers: cfg.EmbedWorkers, CacheSize: cfg.CacheSize})

	var local session.Store
	var repl *ReplicatedStore
	var store session.Store
	if cfg.JournalDir != "" {
		local = session.NewDirStore(cfg.JournalDir)
		repl = NewReplicatedStore(local, cfg.ReplicateTo, eng.Registry(), logf)
		store = repl
	} else if cfg.ReplicateTo != "" {
		return nil, errors.New("fleet: -replicate-to requires a journal directory (replication streams the journal)")
	}

	mgr := session.NewManager(eng.Registry(), session.Options{
		Store:         store,
		SnapshotEvery: cfg.SnapshotEvery,
		EventBuffer:   cfg.EventBuffer,
	})
	s := &Shard{
		Engine:    eng,
		Sessions:  mgr,
		Replica:   NewReplica(local, mgr, logf),
		Gate:      &EpochGate{},
		local:     local,
		repl:      repl,
		logf:      logf,
		handedOff: make(map[string]bool),
	}
	s.Replica.Gate = s.Gate
	if repl != nil {
		repl.OnFenced = s.demote
	}
	// Mirror the shard's control-plane state into the engine's registry
	// at scrape time, so /metrics (and the router's fleet-wide merge)
	// carries session counts, replication health and fence/demotion
	// counts alongside the engine's own families.  Summed across shards
	// by the router's merge: fleet_replica_state{state="ok"} then counts
	// the shards currently in that state.
	reg := eng.Registry()
	reg.SetHelp("fleet_shard_sessions", "Live sessions on this shard.")
	reg.SetHelp("fleet_shard_demotions_total", "Times this shard fenced itself and demoted to a clean standby.")
	reg.SetHelp("fleet_replica_lag", "Events acked locally but not yet on the replica (catch-up backlog).")
	reg.SetHelp("fleet_replica_state", "Shards currently in each replication state (1 per shard).")
	reg.AddCollector(func(r *obs.Registry) {
		r.Gauge("fleet_shard_sessions").Set(int64(len(mgr.List())))
		r.Counter("fleet_shard_demotions_total").Set(s.demotions.Load())
		rs := s.Replication()
		r.Gauge("fleet_replica_lag").Set(rs.Lag)
		for _, st := range []ReplicaState{ReplicaOff, ReplicaOK, ReplicaCatchup} {
			var v int64
			if rs.State == st {
				v = 1
			}
			r.Gauge("fleet_replica_state", "state", string(st)).Set(v)
		}
	})
	if store != nil && !cfg.Standby {
		if cfg.ReplicateTo != "" && s.peerPromoted(cfg.ReplicateTo) {
			// The replica went hot while this process was dead: its
			// journals supersede ours.  Start as a clean standby.
			logf("fleet: replica %s is already promoted; starting as a clean standby instead of restoring", cfg.ReplicateTo)
			s.wipeJournals()
			repl.SetTarget("")
			s.demotions.Add(1)
			return s, nil
		}
		restored, errs := mgr.Restore()
		s.Restored = len(restored)
		s.RestoreErrors = errs
		for _, err := range errs {
			logf("fleet: restore: %v", err)
		}
	}
	return s, nil
}

// peerPromoted asks the configured replica whether it has gone hot; an
// unreachable peer reads as "no" (the first replicated append will
// fence us if we guessed wrong).
func (s *Shard) peerPromoted(base string) bool {
	st, err := (&ReplicaClient{Base: base}).Status()
	return err == nil && st.Promoted
}

// Replication reports the store's replication status plus the shard's
// control-plane counters; surfaced as GET /v1/replication and merged
// into the router's fleet status.
func (s *Shard) Replication() ReplicationStatus {
	if s.repl == nil {
		return ReplicationStatus{State: ReplicaOff}
	}
	return s.repl.Status()
}

// demote turns a fenced ex-primary into a clean standby: every live
// session is closed and every local journal removed (the promoted
// replica owns the authoritative copies — including every acknowledged
// event, by the synchronous-replication contract; what dies here is
// only the un-replicated suffix written after the promotion, which is
// exactly the split-brain data that must not survive), and the
// replication target is cleared, which also lifts the fence so replica
// ingest can stream this process back into standby duty.
func (s *Shard) demote() {
	s.demotions.Add(1)
	s.logf("fleet: demoting to clean standby: closing sessions and discarding superseded journals")
	for _, sess := range s.Sessions.List() {
		if err := s.Sessions.Delete(sess.Name()); err != nil {
			s.logf("fleet: demote: close %s: %v", sess.Name(), err)
		}
	}
	s.wipeJournals()
	if s.repl != nil {
		s.repl.SetTarget("")
	}
	s.logf("fleet: demotion complete; serving as standby")
}

// wipeJournals removes every local journal (demotion path; the store's
// fence/off state keeps the removals from propagating anywhere).
func (s *Shard) wipeJournals() {
	if s.local == nil {
		return
	}
	names, err := s.local.Names()
	if err != nil {
		s.logf("fleet: demote: listing journals: %v", err)
		return
	}
	for _, name := range names {
		if err := s.local.Remove(name); err != nil {
			s.logf("fleet: demote: remove journal %s: %v", name, err)
		}
	}
}

// Stats is the GET /v1/stats payload: the engine's cache and latency
// snapshot, plus the repair and replication totals of the shard's
// sessions.
type Stats struct {
	engine.EngineStats
	Sessions session.RepairTotals `json:"sessions"`
}

// Handler serves the shard's session API (fenced while a stale
// ex-primary is demoting), replication endpoints, stats, metrics
// (Prometheus text at /metrics, JSON snapshot at /v1/metrics) and health —
// everything the router and a peer primary need.  (The ringsrv binary
// mounts it next to the one-shot embedding endpoints.)
func (s *Shard) Handler() http.Handler {
	mux := http.NewServeMux()
	h := s.SessionHandler()
	mux.Handle("/v1/sessions", h)
	mux.Handle("/v1/sessions/", h)
	mux.Handle("/v1/replica/", s.Replica.Handler())
	rh := s.ReplicationHandler()
	mux.Handle("/v1/replication", rh)
	mux.Handle("/v1/replication/", rh)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeReplicaJSON(w, Stats{
			EngineStats: s.Engine.Stats(),
			Sessions:    session.TotalsFrom(s.Engine.Registry().Snapshot()),
		})
	})
	mux.Handle("GET /metrics", s.Engine.Registry().Handler())
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeReplicaJSON(w, s.Engine.Registry().Snapshot())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

// SessionHandler wraps the session API in the split-brain fence: once
// the replica reports itself promoted, this process answers 503 with
// Retry-After on every session request — the client's retry rides over
// to the promoted shard via the router — instead of serving (or
// mutating) stale sessions with a diverging journal.
func (s *Shard) SessionHandler() http.Handler {
	h := session.Handler(s.Sessions)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.repl != nil && s.repl.Fenced() {
			w.Header().Set("Retry-After", "1")
			replicaError(w, http.StatusServiceUnavailable,
				errors.New("fleet: fenced ex-primary (replica promoted); demoting to standby"))
			return
		}
		if name := sessionPathName(r.URL.Path); name != "" {
			if s.isHandedOff(name) {
				writeDraining(w, name)
				return
			}
			// The check above races the hand-off's release: a request can
			// pass it, then find the session gone.  Catch the resulting 404
			// at write time and turn it into the same 503-retry, so the
			// client rides its backoff to the new owner instead of failing.
			w = &drainOn404{ResponseWriter: w, shard: s, name: name}
		}
		h.ServeHTTP(w, r)
	})
}

// writeDraining answers a request for a handed-off session: 503 with
// Retry-After and the draining marker the client counts separately.
func writeDraining(w http.ResponseWriter, name string) {
	w.Header().Set("Retry-After", "1")
	w.Header().Set("X-Fleet-Draining", "1")
	replicaError(w, http.StatusServiceUnavailable,
		fmt.Errorf("fleet: session %q was handed off in a rebalance; retry through the router", name))
}

// drainOn404 rewrites a 404 for a session that is (by write time)
// marked handed-off into the drain's 503-retry: the session vanished
// between the fence check and the manager lookup because a rebalance
// released it, and the client must retry, not fail.
type drainOn404 struct {
	http.ResponseWriter
	shard   *Shard
	name    string
	wrote   bool
	drained bool
}

func (w *drainOn404) WriteHeader(code int) {
	if w.wrote {
		return
	}
	w.wrote = true
	if code == http.StatusNotFound && w.shard.isHandedOff(w.name) {
		w.drained = true
		writeDraining(w.ResponseWriter, w.name)
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *drainOn404) Write(p []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	if w.drained {
		// Swallow the handler's 404 body; the drain payload is written.
		return len(p), nil
	}
	return w.ResponseWriter.Write(p)
}

// Flush keeps the SSE watch path streaming through the wrapper.
func (w *drainOn404) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// sessionPathName extracts the session name from a /v1/sessions/{name}
// path ("" for the collection endpoints).
func sessionPathName(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/sessions/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func (s *Shard) isHandedOff(name string) bool {
	s.hoMu.Lock()
	defer s.hoMu.Unlock()
	return s.handedOff[name]
}

func (s *Shard) setHandedOff(name string, off bool) {
	s.hoMu.Lock()
	defer s.hoMu.Unlock()
	if off {
		s.handedOff[name] = true
	} else {
		delete(s.handedOff, name)
	}
}

// replication wire formats.
type targetRequest struct {
	Target string `json:"target"`
	Epoch  uint64 `json:"epoch,omitempty"`
}

type handoffRequest struct {
	Name   string `json:"name"`
	Target string `json:"target"`
	Epoch  uint64 `json:"epoch,omitempty"`
}

type handoffResponse struct {
	Name     string `json:"name"`
	Events   int    `json:"events"`
	Seq      uint64 `json:"seq"`
	RingHash string `json:"ring_hash"`
}

type adoptRequest struct {
	Name  string `json:"name"`
	Epoch uint64 `json:"epoch,omitempty"`
}

type adoptResponse struct {
	Name     string `json:"name"`
	Seq      uint64 `json:"seq"`
	RingHash string `json:"ring_hash"`
}

type forgetRequest struct {
	Name string `json:"name"`
}

// replicationStatusResponse is the GET /v1/replication payload.
type replicationStatusResponse struct {
	ReplicationStatus
	Epoch     uint64 `json:"epoch,omitempty"`
	Demotions int64  `json:"demotions,omitempty"`
}

// ReplicationHandler exposes the shard's replication control plane:
//
//	GET  /v1/replication         replication state, target, lag, epoch
//	POST /v1/replication/target  point the store at a (new) replica and
//	                             bootstrap it by streaming every journal
//	POST /v1/replication/handoff release one session and stream its
//	                             journal to another shard (rebalance)
//	POST /v1/replication/adopt   restore a streamed-in journal hot and
//	                             re-replicate it to this shard's standby
//	POST /v1/replication/forget  drop a handed-off journal (post-flip)
//
// target, handoff and adopt are epoch-guarded (see EpochGate).
func (s *Shard) ReplicationHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replication", s.handleReplicationStatus)
	mux.HandleFunc("POST /v1/replication/target", s.handleTarget)
	mux.HandleFunc("POST /v1/replication/handoff", s.handleHandoff)
	mux.HandleFunc("POST /v1/replication/adopt", s.handleAdopt)
	mux.HandleFunc("POST /v1/replication/forget", s.handleForget)
	return mux
}

func (s *Shard) handleReplicationStatus(w http.ResponseWriter, r *http.Request) {
	writeReplicaJSON(w, replicationStatusResponse{
		ReplicationStatus: s.Replication(),
		Epoch:             s.Gate.Current(),
		Demotions:         s.demotions.Load(),
	})
}

func (s *Shard) handleTarget(w http.ResponseWriter, r *http.Request) {
	if s.repl == nil {
		replicaError(w, http.StatusServiceUnavailable, errors.New("fleet: no journal store (start the shard with -journal)"))
		return
	}
	var req targetRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		replicaError(w, http.StatusBadRequest, fmt.Errorf("bad target body: %w", err))
		return
	}
	if current, ok := s.Gate.Admit(req.Epoch); !ok {
		replicaReject(w, current, s.repl.Status().Target,
			fmt.Errorf("fleet: stale replication-target epoch %d (current %d)", req.Epoch, current))
		return
	}
	if err := s.repl.SetTarget(req.Target); err != nil {
		replicaError(w, http.StatusInternalServerError, err)
		return
	}
	if req.Target != "" {
		s.logf("fleet: replication re-targeted to %s (epoch %d); bootstrapping", req.Target, req.Epoch)
	}
	writeReplicaJSON(w, replicationStatusResponse{
		ReplicationStatus: s.repl.Status(),
		Epoch:             s.Gate.Current(),
		Demotions:         s.demotions.Load(),
	})
}

// handleHandoff is the sending half of a rebalance: release the live
// session (journal flushed and kept), stream the full journal to the
// new owner's replica ingest, and report the journal's final seq and
// ring hash so the router can verify the new owner's replay against
// them end to end.
func (s *Shard) handleHandoff(w http.ResponseWriter, r *http.Request) {
	if s.repl == nil {
		replicaError(w, http.StatusServiceUnavailable, errors.New("fleet: no journal store (start the shard with -journal)"))
		return
	}
	var req handoffRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		replicaError(w, http.StatusBadRequest, fmt.Errorf("bad handoff body: %w", err))
		return
	}
	if !session.ValidName(req.Name) || req.Target == "" {
		replicaError(w, http.StatusBadRequest, errors.New("handoff needs a valid session name and a target URL"))
		return
	}
	if current, ok := s.Gate.Admit(req.Epoch); !ok {
		replicaReject(w, current, "", fmt.Errorf("fleet: stale handoff epoch %d (current %d)", req.Epoch, current))
		return
	}
	// Mark before releasing: a request that raced past the router's
	// drain must find either the live session or the 503-retry marker,
	// never the gap between them (a 404 is not retried by the client).
	s.setHandedOff(req.Name, true)
	// Release so the journal is final; "no session" is fine (a previous
	// attempt already released it, or it was never restored).
	if err := s.Sessions.Release(req.Name); err != nil && !strings.Contains(err.Error(), "no session") {
		s.setHandedOff(req.Name, false)
		replicaError(w, http.StatusInternalServerError, err)
		return
	}
	events, err := s.local.Load(req.Name)
	if errors.Is(err, fs.ErrNotExist) {
		s.setHandedOff(req.Name, false)
		replicaError(w, http.StatusNotFound, fmt.Errorf("fleet: no journal for %q", req.Name))
		return
	}
	if err != nil {
		// The session is already released; leave the marker up — the
		// router's rollback re-adopt clears it.
		replicaError(w, http.StatusInternalServerError, err)
		return
	}
	rc := &ReplicaClient{Base: req.Target}
	for start := 0; start < len(events); start += catchupBatch {
		end := min(start+catchupBatch, len(events))
		if err := rc.Append(req.Name, events[start:end]); err != nil {
			replicaError(w, http.StatusBadGateway, fmt.Errorf("fleet: streaming %s to %s: %w", req.Name, req.Target, err))
			return
		}
	}
	seq, hash := journalSummary(events)
	writeReplicaJSON(w, handoffResponse{Name: req.Name, Events: len(events), Seq: seq, RingHash: hash})
}

// handleAdopt is the receiving half: restore the streamed-in journal
// through the deterministic hash-verified replay, mark it for a full
// re-stream to this shard's own standby (the standby saw none of the
// journal's prefix), and report the live session's seq and ring hash
// for the router's end-to-end check.
func (s *Shard) handleAdopt(w http.ResponseWriter, r *http.Request) {
	var req adoptRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		replicaError(w, http.StatusBadRequest, fmt.Errorf("bad adopt body: %w", err))
		return
	}
	if !session.ValidName(req.Name) {
		replicaError(w, http.StatusBadRequest, errors.New("adopt needs a valid session name"))
		return
	}
	if current, ok := s.Gate.Admit(req.Epoch); !ok {
		replicaReject(w, current, "", fmt.Errorf("fleet: stale adopt epoch %d (current %d)", req.Epoch, current))
		return
	}
	sess, err := s.Sessions.RestoreNamed(req.Name)
	if err != nil {
		replicaError(w, http.StatusUnprocessableEntity, fmt.Errorf("fleet: adopt %s: %w", req.Name, err))
		return
	}
	s.setHandedOff(req.Name, false)
	if s.repl != nil {
		s.repl.Bootstrap(req.Name)
	}
	st := sess.StateSnapshot(false)
	writeReplicaJSON(w, adoptResponse{Name: req.Name, Seq: st.Seq, RingHash: st.RingHash})
}

// handleForget drops a handed-off journal after the routing flip —
// through the replicated store, so this shard's own standby drops its
// copy too.  Refused while the session is live (that means the flip
// went the other way).
func (s *Shard) handleForget(w http.ResponseWriter, r *http.Request) {
	if s.repl == nil {
		replicaError(w, http.StatusServiceUnavailable, errors.New("fleet: no journal store (start the shard with -journal)"))
		return
	}
	var req forgetRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		replicaError(w, http.StatusBadRequest, fmt.Errorf("bad forget body: %w", err))
		return
	}
	if _, live := s.Sessions.Get(req.Name); live {
		replicaError(w, http.StatusConflict, fmt.Errorf("fleet: session %q is live on this shard", req.Name))
		return
	}
	if err := s.repl.Remove(req.Name); err != nil && !errors.Is(err, fs.ErrNotExist) {
		replicaError(w, http.StatusInternalServerError, err)
		return
	}
	// The handed-off marker outlives the forget: a straggler request
	// still in flight under the pre-flip routing gets 503-retry here and
	// reaches the new owner through the router, instead of a 404.  A
	// later re-adoption (the keyspace moving back) clears it.
	w.WriteHeader(http.StatusNoContent)
}

// Shard-control client methods (the router side of the endpoints
// above).  They live on ReplicaClient: one client type per peer, for
// both the data stream and the control plane.

// SetTarget points the peer's replicated store at a (new) replica.
func (c *ReplicaClient) SetTarget(target string, epoch uint64) (*replicationStatusResponse, error) {
	body, err := json.Marshal(targetRequest{Target: target, Epoch: epoch})
	if err != nil {
		return nil, err
	}
	var resp replicationStatusResponse
	if err := c.post("/v1/replication/target", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Replication fetches the peer's replication status.
func (c *ReplicaClient) Replication() (*replicationStatusResponse, error) {
	req, err := http.NewRequest(http.MethodGet, c.Base+"/v1/replication", nil)
	if err != nil {
		return nil, err
	}
	var resp replicationStatusResponse
	if err := c.roundTrip(req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Handoff asks the peer to release one session and stream its journal
// to target.
func (c *ReplicaClient) Handoff(name, target string, epoch uint64) (*handoffResponse, error) {
	body, err := json.Marshal(handoffRequest{Name: name, Target: target, Epoch: epoch})
	if err != nil {
		return nil, err
	}
	var resp handoffResponse
	if err := c.post("/v1/replication/handoff", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Adopt asks the peer to restore a streamed-in journal hot.
func (c *ReplicaClient) Adopt(name string, epoch uint64) (*adoptResponse, error) {
	body, err := json.Marshal(adoptRequest{Name: name, Epoch: epoch})
	if err != nil {
		return nil, err
	}
	var resp adoptResponse
	if err := c.post("/v1/replication/adopt", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Forget asks the peer to drop a handed-off journal.
func (c *ReplicaClient) Forget(name string) error {
	body, err := json.Marshal(forgetRequest{Name: name})
	if err != nil {
		return err
	}
	return c.post("/v1/replication/forget", body, nil)
}

// journalSummary extracts the last sequence number and the most recent
// ring hash from a journal's events (snapshot events repeat the hash of
// the ring they captured, so the scan rarely walks far).
func journalSummary(events []session.Event) (seq uint64, hash string) {
	if len(events) > 0 {
		seq = events[len(events)-1].Seq
	}
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].RingHash != "" {
			return seq, events[i].RingHash
		}
	}
	return seq, ""
}

// Close shuts the shard down: sessions snapshotted, journals flushed
// and synced, ingest writers released, catch-up loop stopped.
func (s *Shard) Close() {
	s.Sessions.Close()
	s.Replica.Close()
	if s.repl != nil {
		s.repl.Close()
	}
}
