package fleet

import (
	"errors"
	"io/fs"
	"math/rand"
	"sync"
	"time"

	"debruijnring/obs"
	"debruijnring/session"
)

// ReplicaState names the replication health of a shard's store, as
// surfaced in /v1/replication and the router's fleet status.
type ReplicaState string

const (
	// ReplicaOff: no replica target configured; journaling is local-only
	// by design (the group is one failure from loss, and says so).
	ReplicaOff ReplicaState = "off"
	// ReplicaOK: every append ships to the replica before the client ack.
	ReplicaOK ReplicaState = "ok"
	// ReplicaCatchup: the replica is (or was) unreachable or freshly
	// assigned; a background loop is re-streaming the affected journals
	// with jittered backoff.  Events acked in this state are local-only
	// until the catch-up completes.
	ReplicaCatchup ReplicaState = "catchup"
	// ReplicaFenced: the replica answered "promoted" — this process is a
	// stale ex-primary whose journals have been superseded.  It must stop
	// serving sessions and demote itself (see Shard.demote).
	ReplicaFenced ReplicaState = "fenced"
)

// ReplicationStatus is the primary-side replication snapshot.
type ReplicationStatus struct {
	State  ReplicaState `json:"state"`
	Target string       `json:"target,omitempty"`
	// Lag counts events acked locally while the replica was not in sync
	// (catch-up resets it to zero when the journals converge).
	Lag int64 `json:"lag,omitempty"`
	// PendingSessions counts journals still waiting for a catch-up
	// re-stream.
	PendingSessions int `json:"pending_sessions,omitempty"`
}

// ReplicatedStore is a session.Store that tees every journal append to
// a replica shard over HTTP before the append returns — which is before
// the session acknowledges the event to its client.  That ordering is
// the fleet's durability contract: an acknowledged event is on two
// processes, so SIGKILLing the owning shard loses nothing a client was
// told had happened, and the promoted replica's hash-verified replay
// reconstructs the exact acknowledged rings.
//
// Unlike the first fleet iteration, a replica failure is a state, not a
// shrug: the store drops to ReplicaCatchup, keeps acking locally (the
// event survives a restart but not a shard loss, and the lag counter
// says so), and a background loop re-streams the affected journals with
// jittered backoff until the replica has byte-equivalent journals
// again, at which point synchronous acks resume.  The same machinery
// bootstraps a freshly assigned standby (SetTarget): every local
// journal is marked dirty and streamed over, so a promoted shard is
// back to one-failure-from-safe without an operator restart.
//
// If the replica answers "promoted" the store fences instead: this
// process is a stale ex-primary, its journals are superseded, and the
// OnFenced callback (the shard's self-demotion) takes over.
//
// Reads (Load, Names) and Restore never touch the replica — the local
// journal is authoritative for this process's own lifetime.
type ReplicatedStore struct {
	local   session.Store
	appends *obs.Counter // fleet_replica_appends_total
	errs    *obs.Counter // fleet_replica_errors_total
	logf    func(string, ...any)

	// OnFenced is invoked (once, on its own goroutine) when the replica
	// refuses ingest because it has been promoted.  Set before use.
	OnFenced func()

	// RetryBase / RetryCap tune the catch-up loop's jittered exponential
	// backoff (defaults 100ms / 5s); tests shorten them.
	RetryBase time.Duration
	RetryCap  time.Duration

	mu     sync.Mutex
	target string
	client *ReplicaClient
	state  ReplicaState
	dirty  map[string]bool // journals needing a full re-stream
	lag    int64
	loopOn bool
	closed bool
	stopc  chan struct{}
}

// NewReplicatedStore wraps local so every append is also shipped to the
// target replica ("" starts with replication off; SetTarget can assign
// one later).  reg (optional) receives the fleet_replica_appends_total
// and fleet_replica_errors_total counters; logf (optional) receives
// degraded-mode complaints.
func NewReplicatedStore(local session.Store, target string, reg *obs.Registry, logf func(string, ...any)) *ReplicatedStore {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &ReplicatedStore{
		local:   local,
		appends: reg.Counter("fleet_replica_appends_total"),
		errs:    reg.Counter("fleet_replica_errors_total"),
		logf:    logf,
		state:   ReplicaOff,
		dirty:   make(map[string]bool),
		stopc:   make(chan struct{}),
	}
	if target != "" {
		s.target = target
		s.client = &ReplicaClient{Base: target}
		s.state = ReplicaOK
	}
	return s
}

// Local returns the wrapped process-local store.
func (s *ReplicatedStore) Local() session.Store { return s.local }

// Status reports the replication state for /v1/replication.
func (s *ReplicatedStore) Status() ReplicationStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ReplicationStatus{
		State:           s.state,
		Target:          s.target,
		Lag:             s.lag,
		PendingSessions: len(s.dirty),
	}
}

// SetTarget points the store at a (new) replica and bootstraps it:
// every existing local journal is marked for a full re-stream through
// the catch-up loop, and synchronous acks resume once the streams
// converge.  An empty target turns replication off.  SetTarget clears a
// fence — the caller (the shard's demotion/re-target path) decides when
// the store is clean enough for that.
func (s *ReplicatedStore) SetTarget(target string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("fleet: replicated store is closed")
	}
	s.target = target
	s.lag = 0
	s.dirty = make(map[string]bool)
	if target == "" {
		s.client = nil
		s.state = ReplicaOff
		return nil
	}
	s.client = &ReplicaClient{Base: target}
	names, err := s.local.Names()
	if err != nil {
		return err
	}
	if len(names) == 0 {
		s.state = ReplicaOK
		return nil
	}
	for _, name := range names {
		s.dirty[name] = true
	}
	s.state = ReplicaCatchup
	s.startLoopLocked()
	return nil
}

// Bootstrap marks one session's journal for a full re-stream to the
// replica — used when a journal materialized outside the append path
// (a rebalance adoption) and the replica has none of its prefix.
func (s *ReplicatedStore) Bootstrap(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.target == "" || s.state == ReplicaFenced {
		return
	}
	s.dirty[name] = true
	s.state = ReplicaCatchup
	s.startLoopLocked()
}

// Fenced reports whether the store has been fenced by a promoted peer.
func (s *ReplicatedStore) Fenced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == ReplicaFenced
}

// Close stops the catch-up loop.  The local store stays usable.
func (s *ReplicatedStore) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.stopc)
}

// Create opens a fresh local journal; the replica's copy materializes
// when the first append (the created event) ships.
func (s *ReplicatedStore) Create(name string) (session.JournalWriter, error) {
	w, err := s.local.Create(name)
	if err != nil {
		return nil, err
	}
	return &replicatedWriter{name: name, local: w, store: s}, nil
}

// Open reopens the local journal for appending; subsequent appends
// resume the replication stream mid-journal (the replica's copy is kept
// in lockstep with the local file while the state is ok, and caught up
// by full re-streams otherwise).
func (s *ReplicatedStore) Open(name string) (session.JournalWriter, error) {
	w, err := s.local.Open(name)
	if err != nil {
		return nil, err
	}
	return &replicatedWriter{name: name, local: w, store: s}, nil
}

// Load reads the local journal.
func (s *ReplicatedStore) Load(name string) ([]session.Event, error) { return s.local.Load(name) }

// Names lists the local journals.
func (s *ReplicatedStore) Names() ([]string, error) { return s.local.Names() }

// Remove deletes the journal on both sides.
func (s *ReplicatedStore) Remove(name string) error {
	s.mu.Lock()
	client := s.client
	fenced := s.state == ReplicaFenced
	delete(s.dirty, name)
	s.mu.Unlock()
	if client != nil && !fenced {
		if err := client.Remove(name); err != nil {
			if errors.Is(err, ErrPeerPromoted) {
				s.fence()
			}
			s.logf("fleet: replica remove %s: %v", name, err)
		}
	}
	return s.local.Remove(name)
}

// record counts one replica append and whether it failed.
func (s *ReplicatedStore) record(ok bool) {
	s.appends.Inc()
	if !ok {
		s.errs.Inc()
	}
}

// degrade enters catch-up after a failed synchronous append: the event
// is local-only, the session's journal is marked for a full re-stream,
// and the background loop owns recovery from here.
func (s *ReplicatedStore) degrade(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.state == ReplicaFenced || s.target == "" {
		return
	}
	s.dirty[name] = true
	s.lag++
	if s.state != ReplicaCatchup {
		s.state = ReplicaCatchup
		s.logf("fleet: replica %s unreachable; degrading to catch-up replication", s.target)
	}
	s.startLoopLocked()
}

// fence records that the replica has been promoted: this process is a
// stale ex-primary and must stop serving.  The OnFenced callback (the
// shard's demotion) runs once, on its own goroutine.
func (s *ReplicatedStore) fence() {
	s.mu.Lock()
	if s.state == ReplicaFenced || s.closed {
		s.mu.Unlock()
		return
	}
	s.state = ReplicaFenced
	target, cb := s.target, s.OnFenced
	s.mu.Unlock()
	s.logf("fleet: replica %s reports promoted — this shard is a stale ex-primary; fencing", target)
	if cb != nil {
		go cb()
	}
}

// startLoopLocked launches the catch-up goroutine if it is not already
// running; callers hold s.mu.
func (s *ReplicatedStore) startLoopLocked() {
	if s.loopOn || s.closed {
		return
	}
	s.loopOn = true
	go s.catchupLoop()
}

// catchupLoop re-streams dirty journals with jittered exponential
// backoff until none remain (then synchronous replication resumes) or
// the store is closed, re-targeted away, or fenced.
func (s *ReplicatedStore) catchupLoop() {
	base, cap := s.RetryBase, s.RetryCap
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if cap <= 0 {
		cap = 5 * time.Second
	}
	backoff := base
	for {
		s.mu.Lock()
		if s.closed || s.state != ReplicaCatchup || s.target == "" {
			s.loopOn = false
			s.mu.Unlock()
			return
		}
		var name string
		//ringlint:allow maporder any dirty journal may catch up first; convergence is unordered
		for n := range s.dirty {
			name = n
			break
		}
		if name == "" {
			// Everything converged: resume synchronous acks.
			s.state = ReplicaOK
			s.lag = 0
			s.loopOn = false
			target := s.target
			s.mu.Unlock()
			s.logf("fleet: replica %s caught up; synchronous replication resumed", target)
			return
		}
		// Clear the mark before loading: appends landing mid-stream
		// re-mark the journal and force another pass, so no event is
		// skipped.
		delete(s.dirty, name)
		client := s.client
		s.mu.Unlock()

		err := s.streamJournal(client, name)
		switch {
		case err == nil:
			backoff = base
			continue
		case errors.Is(err, ErrPeerPromoted):
			s.fence()
			s.mu.Lock()
			s.loopOn = false
			s.mu.Unlock()
			return
		default:
			s.mu.Lock()
			if s.state == ReplicaCatchup {
				s.dirty[name] = true
			}
			s.mu.Unlock()
			s.logf("fleet: catch-up of %s to %s: %v (retrying in ~%s)", name, client.Base, err, backoff)
			// ±50% jitter decorrelates shards retrying into a recovering
			// replica.
			d := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
			if backoff *= 2; backoff > cap {
				backoff = cap
			}
			select {
			case <-time.After(d):
			case <-s.stopc:
				s.mu.Lock()
				s.loopOn = false
				s.mu.Unlock()
				return
			}
		}
	}
}

// catchupBatch bounds one catch-up append request.
const catchupBatch = 512

// streamJournal re-streams one session's full local journal to the
// replica.  The first batch starts with the created event, which the
// replica treats as a replacing stream, so re-streaming is idempotent:
// a half-shipped journal is simply replaced on the next attempt.
func (s *ReplicatedStore) streamJournal(client *ReplicaClient, name string) error {
	events, err := s.local.Load(name)
	if errors.Is(err, fs.ErrNotExist) {
		// Deleted mid-catch-up: drop the replica's stale copy too.
		if rerr := client.Remove(name); rerr != nil {
			s.logf("fleet: replica remove %s after local delete: %v", name, rerr)
		}
		return nil
	}
	if err != nil {
		return err
	}
	for start := 0; start < len(events); start += catchupBatch {
		end := start + catchupBatch
		if end > len(events) {
			end = len(events)
		}
		if err := client.Append(name, events[start:end]); err != nil {
			return err
		}
	}
	return nil
}

// replicatedWriter is one session's teeing journal handle.
type replicatedWriter struct {
	name  string
	local session.JournalWriter
	store *ReplicatedStore
}

// Append journals the event locally, then ships it to the replica and
// only then returns — the ack path of the zero-acknowledged-loss
// guarantee.  A replica failure degrades to catch-up mode (counted,
// logged, and repaired in the background), never to a refused event.
func (w *replicatedWriter) Append(ev session.Event) error {
	err := w.local.Append(ev)
	s := w.store
	s.mu.Lock()
	switch s.state {
	case ReplicaOff:
		s.mu.Unlock()
		return err
	case ReplicaFenced:
		s.mu.Unlock()
		s.record(false)
		return err
	case ReplicaCatchup:
		// The background loop owns this journal; the event is local-only
		// for now and rides the next full re-stream.
		s.dirty[w.name] = true
		s.lag++
		s.mu.Unlock()
		s.record(false)
		return err
	}
	client := s.client
	s.mu.Unlock()

	rerr := client.Append(w.name, []session.Event{ev})
	s.record(rerr == nil)
	if rerr == nil {
		return err
	}
	if errors.Is(rerr, ErrPeerPromoted) {
		s.fence()
		return err
	}
	s.logf("fleet: replicate %s seq %d: %v (event is local-only until catch-up)", w.name, ev.Seq, rerr)
	s.degrade(w.name)
	return err
}

func (w *replicatedWriter) Sync() error  { return w.local.Sync() }
func (w *replicatedWriter) Close() error { return w.local.Close() }
