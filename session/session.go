// Package session manages long-lived fault-evolving topologies: where
// the engine package answers one-shot "embed a ring around these
// faults" requests, a session holds a named topology with a live fault
// set — the paper's actual operating regime, in which processors and
// links fail (and are repaired) one after another while the ring keeps
// carrying traffic.
//
// The fault lifecycle is bidirectional.  AddFaults absorbs newly
// failed components and RemoveFaults re-admits repaired ones; both run
// the layered repair ladder of package internal/repair — structural
// FFC surgery first (cut faulted necklaces out along surviving
// shift-edge labels, reorder star windows around faulted ring links,
// re-expand healed necklaces back into the tree), then the generic
// splice tier (local bypass surgery on the live ring, for the fault
// sets the FFC machinery rejects) — falling back to a full re-embed
// only when every tier declines or the paper's f ≤ n fault bound is
// exceeded.  Every transition appends an event to the
// session's journal — fault or heal batch, repair kind, ring delta,
// ring hash — and periodic snapshots capture the full state, so a
// Manager pointed at the same directory after a crash resumes every
// session with an identical ring (replay is deterministic and verified
// hash-by-hash; a snapshot is adopted only when its ring matches its
// hash and passes topology.VerifyRing, otherwise replay starts from
// creation).  Watchers stream the same events over long-poll or SSE via
// the HTTP handler in this package.
//
// Per event, the work follows what the repair touched.  The session
// owns one ring (a node sequence, a dense position index and a spare
// buffer).  A structural (FFC-tier) repair arrives as a repair.Delta —
// successor edits plus the nodes leaving and joining — and is applied
// to that ring by block-copying the unchanged arcs between the edited
// nodes; the result is proven a valid ring from its seams alone (every
// edited hop is a surviving link, every old arc is used once, the walk
// closes at the promised length, no new fault stays on the ring, the
// length meets dⁿ − nf) and the Removed/Added lists fall out of the
// same walk.  Splice-tier results and re-embeds are full replacements:
// verified whole with topology.VerifyRing and diffed against the old
// ring with two node bitsets.  The ring is hashed once per change and
// events, state reads and snapshots read the cached hash.  Since no
// event verifies the whole ring any more, every journal snapshot first
// audits it with the full VerifyRing; a ring that fails is not
// snapshotted (Restore replays from an older point) and the failure is
// counted in session_ring_audit_failures_total.
package session

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"debruijnring/internal/repair"
	"debruijnring/topology"
)

// Event is one journaled (and watchable) session transition.  The same
// structure serves as the journal line format, the long-poll/SSE payload
// and the AddFaults result.
type Event struct {
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Kind is "created", "embed" (the initial embedding), "fault" (one
	// absorbed fault batch), "heal" (one re-admitted repair batch) or
	// "snapshot" (journal-only state capture).
	Kind string `json:"kind"`

	// created events:
	Name string `json:"name,omitempty"`
	Spec string `json:"spec,omitempty"`
	// RepairVer stamps the repair-decision semantics the journal was
	// recorded under (see repairSemVer).  Replay re-runs those
	// decisions, so a journal from a build with different semantics can
	// diverge; the version turns the resulting hash mismatch into an
	// actionable error.  0 on journals predating the stamp.
	RepairVer int `json:"repair_ver,omitempty"`

	// fault/heal events: the canonicalized batch added (or removed)
	// this event and how it was served — "local" (structural tier),
	// "splice" (the generic bypass tier, after the structural tier
	// declined), "reembed", "noop" or "rejected".
	AddNodes    []int    `json:"add_nodes,omitempty"`
	AddEdges    [][2]int `json:"add_edges,omitempty"`
	RemoveNodes []int    `json:"remove_nodes,omitempty"`
	RemoveEdges [][2]int `json:"remove_edges,omitempty"`
	Repair      string   `json:"repair,omitempty"`
	Error       string   `json:"error,omitempty"`
	// Tiers is the repair-tier descent that produced Repair: each rung
	// of the FFC → splice → re-embed ladder that ran, with its outcome,
	// touched-structure count and latency.  Carried on journal lines
	// and watch/SSE payloads; replay ignores it (ring hashes are the
	// determinism check).
	Tiers []TierTrace `json:"tiers,omitempty"`

	// Ring bookkeeping after the event: length, the paper's lower bound,
	// cumulative deduplicated fault count, and an FNV-64a hash of the
	// ring used to verify deterministic journal replay.
	RingLength int    `json:"ring_length,omitempty"`
	LowerBound int    `json:"lower_bound,omitempty"`
	FaultCount int    `json:"fault_count,omitempty"`
	RingHash   string `json:"ring_hash,omitempty"`
	ElapsedNs  int64  `json:"elapsed_ns,omitempty"`

	// Ring delta: nodes that left and (re-embeds only) rejoined the
	// ring.  Omitted when larger than deltaLimit, flagged by
	// DeltaTruncated.
	Removed        []int `json:"removed,omitempty"`
	Added          []int `json:"added,omitempty"`
	DeltaTruncated bool  `json:"delta_truncated,omitempty"`

	// snapshot events (journal-only): the full state to resume from.
	Ring       []int           `json:"ring,omitempty"`
	FaultNodes []int           `json:"fault_nodes,omitempty"`
	FaultEdges [][2]int        `json:"fault_edges,omitempty"`
	Patcher    json.RawMessage `json:"patcher,omitempty"`
	Stats      *Stats          `json:"stats,omitempty"`
}

// deltaLimit bounds the Removed/Added lists carried on events; larger
// deltas report lengths only.
const deltaLimit = 128

// repairSemVer identifies the current repair-decision semantics.  Bump
// it whenever the deterministic repair path changes shape (which ring a
// given fault history produces): 2 = the bidirectional lifecycle with
// star-reorder link absorption; 3 = the layered repair chain (splice
// tier between structural repair and re-embed, multi-hop bypass heal);
// journals without a stamp predate the versioning.
const repairSemVer = 3

// Stats counts a session's fault and heal events by outcome.
// LocalRepairs/SpliceRepairs/Reembeds cover fault batches;
// LocalHeals/SpliceHeals/HealReembeds cover heal batches; Noops and
// Rejected cover both directions.  The splice counters are the middle
// rung of the repair ladder: batches the structural tier declined but
// the generic splice tier absorbed without a re-embed.
type Stats struct {
	Events        int64 `json:"events"`
	LocalRepairs  int64 `json:"local_repairs"`
	Reembeds      int64 `json:"reembeds"`
	Noops         int64 `json:"noops"`
	Rejected      int64 `json:"rejected"`
	LocalHeals    int64 `json:"local_heals,omitempty"`
	HealReembeds  int64 `json:"heal_reembeds,omitempty"`
	SpliceRepairs int64 `json:"splice_repairs,omitempty"`
	SpliceHeals   int64 `json:"splice_heals,omitempty"`
}

// Session is one fault-evolving topology with its current ring.  All
// methods are safe for concurrent use.
type Session struct {
	name string
	spec string
	net  topology.RingEmbedder
	mgr  *Manager

	mu      sync.Mutex
	patcher repair.RingPatcher
	faults  topology.FaultSet
	ring    liveRing
	// hash is ringHash(ring.seq), computed once per ring change and read
	// by every event, state snapshot and journal snapshot.
	hash      string
	delta     ringDiff // bitsets reused by every event's ring diff
	rounds    int      // broadcast rounds of the last full embed
	seq       uint64
	stats     Stats
	journal   JournalWriter // nil when persistence is off
	sinceSnap int
	closed    bool

	// events is a bounded buffer of recent events for watchers; notify
	// is closed and replaced on every publish.
	events []Event
	notify chan struct{}

	// traces is a bounded buffer of per-event repair traces for the
	// trace endpoint (live events only; replay does not refill it).
	traces []TraceRecord
}

// Name returns the session's unique name.
func (s *Session) Name() string { return s.name }

// Spec returns the topology spec the session was created with.
func (s *Session) Spec() string { return s.spec }

// Network returns the session's topology.
func (s *Session) Network() topology.RingEmbedder { return s.net }

// State is a point-in-time snapshot of a session.
type State struct {
	Name       string   `json:"name"`
	Spec       string   `json:"spec"`
	Seq        uint64   `json:"seq"`
	Ring       []int    `json:"ring,omitempty"`
	RingLength int      `json:"ring_length"`
	LowerBound int      `json:"lower_bound"`
	RingHash   string   `json:"ring_hash"`
	FaultNodes []int    `json:"fault_nodes,omitempty"`
	FaultEdges [][2]int `json:"fault_edges,omitempty"`
	Stats      Stats    `json:"stats"`
}

// StateSnapshot returns the session's current state.  includeRing
// controls whether the (possibly large) ring itself is copied.
func (s *Session) StateSnapshot(includeRing bool) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := State{
		Name:       s.name,
		Spec:       s.spec,
		Seq:        s.seq,
		RingLength: len(s.ring.seq),
		LowerBound: s.lowerBoundLocked(),
		RingHash:   s.hash,
		FaultNodes: append([]int(nil), s.faults.Nodes...),
		FaultEdges: encodeEdges(s.faults.Edges),
		Stats:      s.stats,
	}
	if includeRing {
		st.Ring = s.ring.ints()
	}
	return st
}

// IsClosed reports whether the session has been deleted or shut down;
// watchers use it to end their streams instead of spinning on the
// immediately-returning EventsSince.
func (s *Session) IsClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Ring returns a copy of the current ring.
func (s *Session) Ring() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.ints()
}

// Faults returns the cumulative canonical fault set.
func (s *Session) Faults() topology.FaultSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

// lowerBoundLocked is the guaranteed minimum ring length under the
// current fault load; see lowerBoundFor.
func (s *Session) lowerBoundLocked() int { return s.lowerBoundFor(s.faults) }

// withinToleranceLocked gates local repair on the paper's f ≤ n bound
// for De Bruijn sessions (beyond it the dⁿ − nf guarantee degrades and
// the full algorithm should re-balance the ring); other topologies
// always try the patch.
func (s *Session) withinToleranceLocked(combined topology.FaultSet) bool {
	db, ok := s.net.(*topology.DeBruijn)
	if !ok {
		return true
	}
	return len(combined.Nodes) <= db.WordLen()
}

// AddFaults absorbs one batch of newly failed components (the fault set
// can shrink again later via RemoveFaults).  It attempts a local repair
// of the current ring, falls back to a full re-embed, journals the
// transition and wakes watchers.  On error the session keeps its
// previous ring and fault set (the event is still journaled as rejected
// so replay stays faithful).
func (s *Session) AddFaults(add topology.FaultSet) (*Event, error) {
	return s.apply(dirFault, add)
}

// RemoveFaults re-admits one batch of repaired components, shrinking
// the session's fault set — the heal direction of the lifecycle.  It
// attempts a local un-patch of the current ring (re-expand the healed
// necklaces, drop the healed links from the avoidance set), falls back
// to a full re-embed around the reduced fault set, journals the
// transition as a "heal" event and wakes watchers.  Healing components
// that were never faulty is a no-op.  On error the session keeps its
// previous ring and fault set (the event is still journaled as rejected
// so replay stays faithful).
func (s *Session) RemoveFaults(remove topology.FaultSet) (*Event, error) {
	return s.apply(dirHeal, remove)
}

// apply validates and runs one live batch, then writes a journal
// snapshot when the event cadence is due.
func (s *Session) apply(dir direction, batch topology.FaultSet) (*Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("session %q: %w", s.name, ErrClosed)
	}
	if err := batch.Validate(s.net); err != nil {
		return nil, err
	}
	ev, err := s.applyLocked(dir, batch, true)
	if s.journal != nil && s.sinceSnap >= s.mgr.opts.SnapshotEvery {
		s.writeSnapshotLocked()
	}
	return ev, err
}

// applyLocked runs the repair ladder for one validated fault or heal
// batch: a batch that changes no fault is a noop; otherwise, within
// tolerance, the patcher's local tiers (Patch for faults, Unpatch for
// heals) get the first try, and a full re-embed serves whatever they
// decline.  If the re-embed fails too the event is a rejection and the
// session keeps its state.  With record=false (journal replay) nothing
// is journaled and no metric moves; the decision path is deterministic,
// so replay reproduces the live rings exactly.
func (s *Session) applyLocked(dir direction, batch topology.FaultSet, record bool) (*Event, error) {
	start := time.Now()
	batch = batch.Canonical()
	ev := &Event{Kind: dirNames[dir]}
	// next is the fault set after the event; changed is the part of the
	// batch that actually moves it.
	var next, changed topology.FaultSet
	if dir == dirFault {
		next, changed = s.faults.Union(batch), batch.Minus(s.faults)
		ev.AddNodes, ev.AddEdges = append([]int(nil), batch.Nodes...), encodeEdges(batch.Edges)
	} else {
		next = s.faults.Minus(batch)
		changed = s.faults.Minus(next)
		ev.RemoveNodes, ev.RemoveEdges = append([]int(nil), batch.Nodes...), encodeEdges(batch.Edges)
	}
	ev.FaultCount = len(next.Nodes) + len(next.Edges)

	o := outcome{dir: dir, tier: tierNoop}
	var ring []int // a full replacement ring, installed below
	var embedErr error
	if !changed.IsEmpty() {
		o.tier = tierReembed
		if s.withinToleranceLocked(next) {
			var ch repair.Change
			var out repair.Outcome
			var fresh topology.FaultSet // faults a delta must keep off the ring
			if dir == dirFault {
				ch, out = s.patcher.PatchRing(s.ring.seq, s.faults, changed)
				fresh = changed
			} else {
				ch, out = s.patcher.UnpatchRing(s.ring.seq, s.faults, changed)
			}
			ev.Tiers = tierTraces(s.patcher)
			local := tierLocal
			if out == repair.Spliced {
				local = tierSplice
			}
			// Every other outcome changes the ring: Patch answers only
			// Patched, Reordered or Spliced, Unpatch only Readmitted or
			// Spliced.  A Delta is applied in place, checked at its seams;
			// a replacement ring is verified whole.
			switch {
			case out == repair.Noop:
				o.tier = tierNoop
			case out == repair.Unsupported:
			case ch.Delta != nil:
				if rem, add, trunc, ok := s.ring.apply(s.net, ch.Delta, next, fresh, s.lowerBoundFor(next)); ok {
					o.tier = local
					ev.Removed, ev.Added, ev.DeltaTruncated = rem, add, trunc
					s.hash = ringHash(s.ring.seq)
				}
			case topology.VerifyRing(s.net, ch.Ring, next) && len(ch.Ring) >= s.lowerBoundFor(next):
				o.tier = local
				ring = ch.Ring
			}
		}
		if o.tier == tierReembed {
			embedStart := time.Now()
			r, info, err := s.patcher.Embed(next)
			step := TierTrace{Tier: "reembed", Outcome: "ok", ElapsedNs: time.Since(embedStart).Nanoseconds()}
			if err != nil {
				embedErr = err
				step.Outcome = "error"
				o.tier = tierRejected
			} else {
				ring = r
				s.rounds = info.Rounds
			}
			ev.Tiers = append(ev.Tiers, step)
		}
	}
	ev.Repair = o.String()

	if embedErr != nil {
		// Nothing absorbed the batch: keep the old state, journal the
		// rejection (replay must take the same path).
		ev.Error = embedErr.Error()
		ev.RingLength = len(s.ring.seq)
		ev.RingHash = s.hash
		s.finishEventLocked(ev, start, record, o)
		return ev, embedErr
	}

	if ring != nil {
		ev.Removed, ev.Added, ev.DeltaTruncated = diffRings(&s.delta, s.net.Nodes(), s.ring.seq, ring)
		s.setRing(ring)
	}
	s.faults = next
	ev.RingLength = len(s.ring.seq)
	ev.LowerBound = s.lowerBoundFor(next)
	ev.RingHash = s.hash
	s.finishEventLocked(ev, start, record, o)
	return ev, nil
}

// lowerBoundFor computes the De Bruijn dⁿ − nf bound for a prospective
// fault set (0 for other topologies or when vacuous; other topologies'
// bounds live on their own embed info).
func (s *Session) lowerBoundFor(f topology.FaultSet) int {
	db, ok := s.net.(*topology.DeBruijn)
	if !ok {
		return 0
	}
	b := db.Nodes() - db.WordLen()*len(f.Nodes)
	if b < 0 {
		return 0
	}
	return b
}

// finishEventLocked stamps, sequences, counts and publishes one event
// and, when record is set, retains its repair trace, journals it and
// feeds the manager's per-outcome metrics.
func (s *Session) finishEventLocked(ev *Event, start time.Time, record bool, o outcome) {
	s.seq++
	ev.Seq = s.seq
	ev.Time = time.Now().UTC()
	ev.ElapsedNs = time.Since(start).Nanoseconds()
	s.stats.Events++
	*s.stats.count(o)++
	s.sinceSnap++
	s.publishLocked(*ev)
	if record {
		s.recordTraceLocked(ev)
		s.appendJournal(*ev)
		s.mgr.metrics.record(o, ev.ElapsedNs)
	}
}

// appendJournal writes one event through the store's journal writer.
// Append errors do not fail the event — the in-memory state machine is
// authoritative for a live session and degrading to memory-only beats
// rejecting traffic — but the lost durability is counted in
// session_journal_errors_total so a degrading session is visible on
// /metrics before a restart loses its tail.
func (s *Session) appendJournal(ev Event) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(ev); err != nil {
		s.mgr.metrics.journalErrs.Inc()
	}
}

// publishLocked appends the event to the watch buffer and wakes every
// waiting watcher.
func (s *Session) publishLocked(ev Event) {
	if limit := s.mgr.opts.EventBuffer; len(s.events) >= limit {
		s.events = append(s.events[:0], s.events[len(s.events)-limit+1:]...)
	}
	s.events = append(s.events, ev)
	close(s.notify)
	s.notify = make(chan struct{})
}

// EventsSince returns buffered events with Seq > after.  When none are
// available it blocks up to wait (0 = return immediately) for the next
// publish.  truncated reports that older events have been evicted from
// the buffer: the watcher should refetch the full session state.
func (s *Session) EventsSince(after uint64, wait time.Duration, cancel <-chan struct{}) (evs []Event, truncated bool) {
	deadline := time.Now().Add(wait)
	for {
		s.mu.Lock()
		if len(s.events) > 0 && s.events[0].Seq > after+1 {
			truncated = true
		}
		for _, ev := range s.events {
			if ev.Seq > after {
				evs = append(evs, ev)
			}
		}
		notify := s.notify
		closed := s.closed
		s.mu.Unlock()
		if len(evs) > 0 || closed || wait <= 0 {
			return evs, truncated
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, truncated
		}
		timer := time.NewTimer(remain)
		select {
		case <-notify:
			timer.Stop()
		case <-timer.C:
			return nil, truncated
		case <-cancel:
			timer.Stop()
			return nil, truncated
		}
	}
}

// writeSnapshotLocked appends a journal-only snapshot event capturing
// the full session state (ring, faults, patcher structure), resetting
// the replay horizon.  It first audits the ring with the full
// topology.VerifyRing — events check only the seams they touch — and
// writes no snapshot of a ring that fails, so Restore replays from an
// older point; the failure is counted in
// session_ring_audit_failures_total.
func (s *Session) writeSnapshotLocked() {
	if s.journal == nil {
		return
	}
	ring := s.ring.ints()
	if !topology.VerifyRing(s.net, ring, s.faults) {
		s.mgr.metrics.auditFailures.Inc()
		s.sinceSnap = 0
		return
	}
	state, err := s.patcher.Snapshot()
	if err != nil {
		state = nil
	}
	stats := s.stats
	s.appendJournal(Event{
		Seq:        s.seq,
		Time:       time.Now().UTC(),
		Kind:       "snapshot",
		RingHash:   s.hash,
		RingLength: len(s.ring.seq),
		Ring:       ring,
		FaultNodes: s.faults.Nodes,
		FaultEdges: encodeEdges(s.faults.Edges),
		Patcher:    state,
		Stats:      &stats,
	})
	s.sinceSnap = 0
}

// closeLocked marks the session closed, optionally writing a final
// snapshot, and releases the journal handle.
func (s *Session) closeLocked(snapshot bool) {
	if s.closed {
		return
	}
	if snapshot && s.sinceSnap > 0 {
		s.writeSnapshotLocked()
	}
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	s.closed = true
	close(s.notify)
	s.notify = make(chan struct{})
}

// setRing installs a copy of a full replacement ring and caches its
// hash; applyLocked rehashes after applying a delta the same way.
func (s *Session) setRing(ring []int) {
	s.ring.reset(s.net.Nodes(), ring)
	s.hash = ringHash(s.ring.seq)
}

// FNV-64a parameters, and the prime raised to the sixth power (mod 2⁶⁴):
// hashing a zero byte is a bare multiply by the prime, so the six high
// zero bytes of a node id below 2¹⁶ cost one multiply.
const (
	fnvOffset64  = 14695981039346656037
	fnvPrime64   = 1099511628211
	fnvPrime64x6 = 0xdc966432edf1c639
)

// ringHash is an FNV-64a digest of the ring's node sequence, each node
// an 8-byte little-endian word, rendered in hex; journal replay verifies
// restored rings against it.
func ringHash[T int | int32](ring []T) string {
	h := uint64(fnvOffset64)
	for _, v := range ring {
		u := uint64(v)
		if u < 1<<16 {
			h = (h ^ u&0xff) * fnvPrime64
			h = (h ^ u>>8) * fnvPrime64
			h *= fnvPrime64x6
			continue
		}
		for i := 0; i < 8; i++ {
			h = (h ^ u>>(8*i)&0xff) * fnvPrime64
		}
	}
	return strconv.FormatUint(h, 16)
}

// ringDiff holds the two node-membership bitsets a session reuses to
// diff its old and new rings: one bit per node, so dⁿ/64 words each.
type ringDiff struct {
	inOld, inCur []uint64
}

// diff lists the nodes of old missing from cur (removed, in old's ring
// order) and the nodes of cur missing from old (added, in cur's ring
// order), over node ids below nodes.  Deltas of more than deltaLimit
// nodes are reported as truncated, with no lists.
func (d *ringDiff) diff(nodes int, old, cur []int) (removed, added []int, truncated bool) {
	return diffRings(d, nodes, old, cur)
}

// diffRings is ringDiff.diff for an old ring of either id width: the
// session diffs its int32 sequence against a replacement ring.
func diffRings[T int | int32](d *ringDiff, nodes int, old []T, cur []int) (removed, added []int, truncated bool) {
	words := (nodes + 63) / 64
	if len(d.inOld) < words {
		d.inOld, d.inCur = make([]uint64, words), make([]uint64, words)
	}
	inOld, inCur := d.inOld[:words], d.inCur[:words]
	clear(inOld)
	clear(inCur)
	for _, v := range old {
		inOld[v>>6] |= 1 << (v & 63)
	}
	for _, v := range cur {
		inCur[v>>6] |= 1 << (v & 63)
	}
	for _, v := range old {
		if inCur[v>>6]&(1<<(v&63)) == 0 {
			if len(removed) == deltaLimit {
				return nil, nil, true
			}
			removed = append(removed, int(v))
		}
	}
	for _, v := range cur {
		if inOld[v>>6]&(1<<(v&63)) == 0 {
			if len(removed)+len(added) == deltaLimit {
				return nil, nil, true
			}
			added = append(added, v)
		}
	}
	return removed, added, false
}

func encodeEdges(edges []topology.Edge) [][2]int {
	if len(edges) == 0 {
		return nil
	}
	out := make([][2]int, len(edges))
	for i, e := range edges {
		out[i] = [2]int{e.From, e.To}
	}
	return out
}

func decodeEdges(pairs [][2]int) []topology.Edge {
	if len(pairs) == 0 {
		return nil
	}
	out := make([]topology.Edge, len(pairs))
	for i, p := range pairs {
		out[i] = topology.Edge{From: p[0], To: p[1]}
	}
	return out
}

// errSessionExists reports a Create against a name already in use.
var errSessionExists = errors.New("session: name already in use")

// ErrClosed is the sentinel wrapped by every mutation attempted after a
// session or its manager has been closed (shutdown or deletion): the
// journal writer is released at close, so post-Close traffic is refused
// instead of racing it.  Check with errors.Is(err, session.ErrClosed).
var ErrClosed = errors.New("session: closed")
