package session

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"debruijnring/internal/repair"
	"debruijnring/obs"
	"debruijnring/topology"
)

// Options configures a Manager.  The zero value keeps sessions
// in-memory only.
type Options struct {
	// Dir is the journal directory; "" disables persistence.  It is a
	// convenience for Store == nil: NewManager wraps it in a DirStore.
	Dir string
	// Store overrides Dir with an explicit persistence backend — e.g.
	// the fleet package's replicated store, which tees every journal
	// append to a replica shard.  nil with Dir == "" keeps sessions
	// in-memory only.
	Store Store
	// SnapshotEvery is the fault-event cadence of full-state snapshots
	// in the journal (default 32).  Snapshots bound the replay work of a
	// Restore; between them replay re-runs the deterministic repair
	// decisions and verifies every ring hash.
	SnapshotEvery int
}

// Manager owns the live sessions of one process and their journals.
type Manager struct {
	opts    Options
	store   Store // nil when persistence is off
	metrics repairMetrics

	mu       sync.Mutex
	closed   bool
	sessions map[string]*Session
}

// NewManager returns a Manager recording its sessions' repair outcomes
// into reg as session_repair_ns{dir,tier} / session_repair_total{dir,tier}
// (nil disables the metrics).
func NewManager(reg *obs.Registry, opts Options) *Manager {
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = 32
	}
	store := opts.Store
	if store == nil && opts.Dir != "" {
		store = NewDirStore(opts.Dir)
	}
	return &Manager{opts: opts, store: store, metrics: newRepairMetrics(reg), sessions: make(map[string]*Session)}
}

// Store returns the manager's persistence backend (nil when sessions
// are in-memory only).
func (m *Manager) Store() Store { return m.store }

// Create starts a session: resolve the topology, run the initial embed
// around the (possibly empty) starting fault set, and open its journal.
func (m *Manager) Create(name, spec string, faults topology.FaultSet) (*Session, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("session: invalid name %q (want %s)", name, nameRE)
	}
	net, err := topology.FromSpec(spec)
	if err != nil {
		return nil, err
	}
	faults = faults.Canonical()
	if err := faults.Validate(net); err != nil {
		return nil, err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("session: manager: %w", ErrClosed)
	}
	if _, ok := m.sessions[name]; ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", errSessionExists, name)
	}
	// Reserve the name while the initial embed runs outside the lock.
	m.sessions[name] = nil
	m.mu.Unlock()
	s, err := m.create(name, spec, net, faults)
	m.mu.Lock()
	if err != nil {
		delete(m.sessions, name)
	} else {
		m.sessions[name] = s
	}
	m.mu.Unlock()
	return s, err
}

func (m *Manager) create(name, spec string, net topology.RingEmbedder, faults topology.FaultSet) (*Session, error) {
	s := &Session{
		name:    name,
		spec:    spec,
		net:     net,
		mgr:     m,
		patcher: repair.For(net),
		notify:  make(chan struct{}),
	}
	_, _, err := s.patcher.Embed(faults)
	if err != nil {
		return nil, err
	}
	s.rehashLocked()

	if m.store != nil {
		s.journal, err = m.store.Create(name)
		if err != nil {
			return nil, err
		}
	}
	now := time.Now().UTC()
	s.appendJournal(Event{
		Seq: 0, Time: now, Kind: "created",
		Name: name, Spec: spec, RepairVer: repairSemVer,
		FaultNodes: faults.Nodes, FaultEdges: encodeEdges(faults.Edges),
	})
	// The initial embed is not a repair decision; it is journaled and
	// published for watchers but stays out of the repair-vs-re-embed
	// counters.
	embedEv := Event{
		Kind:       "embed",
		Repair:     "reembed",
		RingLength: s.patcher.RingLen(),
		LowerBound: repair.LowerBound(net, faults),
		FaultCount: len(faults.Nodes) + len(faults.Edges),
		RingHash:   s.hash,
	}
	s.mu.Lock()
	s.seq++
	embedEv.Seq = s.seq
	embedEv.Time = now
	s.stats.Events++
	s.appendJournal(embedEv)
	s.publishLocked(embedEv)
	s.mu.Unlock()
	return s, nil
}

// Get returns the named session.
func (m *Manager) Get(name string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[name]
	if s == nil {
		return nil, false
	}
	return s, ok
}

// List returns the live sessions sorted by name.
func (m *Manager) List() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		if s != nil {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Delete closes the named session and removes its journal.
func (m *Manager) Delete(name string) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return fmt.Errorf("session: manager: %w", ErrClosed)
	}
	s, ok := m.sessions[name]
	if ok && s != nil {
		// A nil entry is an in-progress Create's name reservation; leave
		// it for that Create to resolve.
		delete(m.sessions, name)
	}
	m.mu.Unlock()
	if !ok || s == nil {
		return fmt.Errorf("%w %q", ErrNoSession, name)
	}
	s.mu.Lock()
	s.closeLocked(false)
	s.mu.Unlock()
	if m.store != nil {
		return m.store.Remove(name)
	}
	return nil
}

// Release closes the named session — journal flushed, synced and kept
// on disk — and removes it from the live set, without the final
// snapshot event (the journal stays byte-identical to what a reader
// already streamed).  It is the hand-off half of a rebalance: the old
// owner releases the session so its journal can be verified against
// the new owner's replay, and RestoreNamed can resurrect it from the
// same journal if the hand-off aborts.
func (m *Manager) Release(name string) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return fmt.Errorf("session: manager: %w", ErrClosed)
	}
	s, ok := m.sessions[name]
	if ok && s != nil {
		delete(m.sessions, name)
	}
	m.mu.Unlock()
	if !ok || s == nil {
		return fmt.Errorf("%w %q", ErrNoSession, name)
	}
	s.mu.Lock()
	s.closeLocked(false)
	s.mu.Unlock()
	return nil
}

// RestoreNamed restores one journal from the store into a live session
// — the single-session counterpart of Restore, used when a journal
// materialized after startup (a rebalance hand-off ingested through the
// replica stream, or an aborted hand-off resurrecting on the old
// owner).  The replay is the same deterministic, hash-verified path as
// Restore; an already-live session is returned as-is.
func (m *Manager) RestoreNamed(name string) (*Session, error) {
	if m.store == nil {
		return nil, fmt.Errorf("session: manager has no store")
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("session: manager: %w", ErrClosed)
	}
	if s, ok := m.sessions[name]; ok && s != nil {
		m.mu.Unlock()
		return s, nil
	}
	m.mu.Unlock()
	s, err := m.restoreOne(name)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	m.mu.Lock()
	if live, ok := m.sessions[name]; ok && live != nil {
		// Lost a race with a concurrent restore; keep the winner.
		m.mu.Unlock()
		s.mu.Lock()
		s.closeLocked(false)
		s.mu.Unlock()
		return live, nil
	}
	m.sessions[name] = s
	m.mu.Unlock()
	return s, nil
}

// Close snapshots, flushes and syncs every session journal and marks
// the manager closed: subsequent Create/Delete calls and mutations on
// the closed sessions return an error wrapping ErrClosed instead of
// racing the released journal writers.  Journals stay on disk for the
// next Restore.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	sessions := make([]*Session, 0, len(m.sessions))
	//ringlint:allow maporder close fan-out order is immaterial
	for _, s := range m.sessions {
		if s != nil {
			sessions = append(sessions, s)
		}
	}
	m.mu.Unlock()
	for _, s := range sessions {
		s.mu.Lock()
		s.closeLocked(true)
		s.mu.Unlock()
	}
}

// Restore loads every journal in the manager's store, resuming each
// session at its exact pre-crash state: jump to the latest snapshot
// (patcher structure + faults, and the ring unless the structure
// regenerates it), then deterministically replay the fault events after
// it, verifying each recorded ring hash.  A snapshot that fails to
// restore is counted in session_restore_snapshot_fallbacks_total and
// replay starts from creation instead.  It returns the sessions
// restored; journals that fail to restore are reported in errs by
// session name and left untouched in the store.
func (m *Manager) Restore() (restored []*Session, errs []error) {
	if m.store == nil {
		return nil, nil
	}
	names, err := m.store.Names()
	if err != nil {
		return nil, []error{err}
	}
	for _, name := range names {
		m.mu.Lock()
		_, exists := m.sessions[name]
		m.mu.Unlock()
		if exists {
			continue // already live (restored earlier or just created)
		}
		s, err := m.restoreOne(name)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
			continue
		}
		m.mu.Lock()
		m.sessions[name] = s
		m.mu.Unlock()
		restored = append(restored, s)
	}
	return restored, errs
}

// restoreOne rebuilds the named session from its journal: the latest
// snapshot that restores, then every later batch through the patcher's
// ladder (absorbLocked), each ring hash checked.  Replay journals,
// publishes and meters nothing; the watch buffer starts as watchable.
func (m *Manager) restoreOne(name string) (*Session, error) {
	events, err := m.store.Load(name)
	if err != nil {
		return nil, err
	}
	created := events[0]
	if created.Kind != "created" || created.Name != name {
		return nil, fmt.Errorf("journal does not begin with a matching created event")
	}
	// Replay re-runs the repair decisions, so a journal recorded under
	// different decision semantics can diverge mid-stream; surface the
	// version on any divergence so the failure is actionable instead of
	// a bare hash mismatch.
	semHint := ""
	if created.RepairVer < decisionSemVer || created.RepairVer > repairSemVer {
		semHint = fmt.Sprintf(" (journal recorded under repair semantics v%d, this build replays v%d: re-create the session, or replay with the recording build and snapshot)",
			created.RepairVer, repairSemVer)
	}
	net, err := topology.FromSpec(created.Spec)
	if err != nil {
		return nil, err
	}
	s := &Session{
		name:    name,
		spec:    created.Spec,
		net:     net,
		mgr:     m,
		patcher: repair.For(net),
		notify:  make(chan struct{}),
		fnvHash: created.RepairVer < edgeHashSemVer,
	}

	// Resume from the most recent snapshot; when it fails to restore,
	// count the fallback and replay from the initial embed.
	start := 0
	for i, ev := range events {
		if ev.Kind == "snapshot" {
			start = i
		}
	}
	if start > 0 && s.restoreSnapshotLocked(events[start]) {
		start++
	} else {
		if start > 0 {
			m.metrics.snapshotFallbacks.Inc()
			s.patcher = repair.For(net)
		}
		faults := topology.FaultSet{Nodes: created.FaultNodes, Edges: decodeEdges(created.FaultEdges)}.Canonical()
		if _, _, err := s.patcher.Embed(faults); err != nil {
			return nil, fmt.Errorf("initial embed replay: %w", err)
		}
		s.rehashLocked()
		start = 1
	}

	// Deterministically replay the fault events, verifying every hash.
	for _, ev := range events[start:] {
		switch ev.Kind {
		case "embed":
			if ev.RingHash != "" && s.hash != ev.RingHash {
				return nil, fmt.Errorf("seq %d: replayed embed hash %s != journaled %s%s", ev.Seq, s.hash, ev.RingHash, semHint)
			}
			s.seq = ev.Seq
			s.stats.Events++
		case "fault", "heal":
			dir, batch := dirFault, topology.FaultSet{Nodes: ev.AddNodes, Edges: decodeEdges(ev.AddEdges)}
			if ev.Kind == "heal" {
				dir, batch = dirHeal, topology.FaultSet{Nodes: ev.RemoveNodes, Edges: decodeEdges(ev.RemoveEdges)}
			}
			if err := batch.Validate(net); err != nil {
				return nil, fmt.Errorf("seq %d: corrupt %s batch: %w", ev.Seq, ev.Kind, err)
			}
			a, err := s.absorbLocked(dir, batch)
			if ev.Repair == "rejected" {
				if err == nil {
					return nil, fmt.Errorf("seq %d: journaled rejection replayed as %s%s", ev.Seq, a.Resolution, semHint)
				}
			} else if err != nil {
				return nil, fmt.Errorf("seq %d: replay failed%s: %w", ev.Seq, semHint, err)
			}
			if ev.RingHash != "" && s.hash != ev.RingHash {
				return nil, fmt.Errorf("seq %d: replayed ring hash %s != journaled %s%s", ev.Seq, s.hash, ev.RingHash, semHint)
			}
			s.seq = ev.Seq // keep the original numbering even across gaps
		case "snapshot":
			// Stale snapshot before the resume point, or one we skipped.
		}
	}
	s.events = watchable(events)

	s.journal, err = m.store.Open(name)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// watchable returns the newest eventBuffer embed, fault and heal events
// of a journal, oldest first: what a live session's watch buffer would
// hold, exactly as journaled.
func watchable(journal []Event) []Event {
	var out []Event
	for i := len(journal) - 1; i >= 0 && len(out) < eventBuffer; i-- {
		if k := journal[i].Kind; k == "embed" || k == "fault" || k == "heal" {
			out = append(out, journal[i])
		}
	}
	slices.Reverse(out)
	return out
}
