// Package session manages long-lived fault-evolving topologies: where
// the engine package answers one-shot "embed a ring around these
// faults" requests, a session holds a named topology with a live fault
// set — the paper's actual operating regime, in which processors and
// links fail (and are repaired) one after another while the ring keeps
// carrying traffic.
//
// The fault lifecycle is bidirectional.  AddFaults absorbs newly
// failed components and RemoveFaults re-admits repaired ones; both run
// the layered repair ladder of package internal/repair (Patcher.Absorb)
// — structural FFC surgery first (cut faulted necklaces out along
// surviving shift-edge labels, reorder star windows around faulted ring
// links, re-expand healed necklaces back into the tree), then the
// generic splice tier (local bypass surgery on the live ring, for the
// fault sets the FFC machinery rejects) — falling back to a full
// re-embed only when every tier declines or the paper's f ≤ n fault
// bound is exceeded.  Every transition appends an event to the
// session's journal — fault or heal batch, repair kind, ring delta,
// ring hash — before watchers see it, and periodic snapshots capture
// the state, so a Manager pointed at the same directory after a crash
// resumes every session with an identical ring.  Replay runs the same
// ladder, verified hash by hash, and seeds the watch buffer with the
// journal's newest events as journaled.  A snapshot holds the patcher
// state, the ring hash, the faults and the stats, and the ring itself
// only when the patcher state cannot regenerate it (the FFC tier's
// successor rule is the ring; splice-owned rings and other topologies
// store it).  A snapshot is adopted only when its ring matches its hash
// and passes the full topology check; otherwise replay starts from creation
// and session_restore_snapshot_fallbacks_total counts it.  Watchers
// stream the same events over long-poll or SSE via the HTTP handler in
// this package.
//
// # Journal v5 snapshots
//
// Journal v5 (repair_ver 5) writes the FFC tier's state as a diff over
// the graph's fault-free embedding, which every session on the graph
// shares, so a snapshot's size follows what the faults touched, not dⁿ:
//
//	"patcher":{"tier":"ffc","state":{"root":R,"nodes":N,"faulty":[...],
//	  "diff":{"v":5,"tree":[[child,parent,w],...],"overrides":[[out,in],...]}}}
//
// tree lists, ascending by child, every necklace whose tree link differs
// from the fault-free tree's, as [child, −1, −1] when it is off the tree;
// overrides lists, ascending by out, every node whose Step-3 successor
// override differs, as [out, −1] when it has none.  A star's centre is
// its children's parent.  Restore applies the diff to the fault-free
// tree, checks that no necklace or slot is listed twice and that each
// label has one centre, audits the whole tree, and walks the ring it
// defines, which must hash to the snapshot's hash and pass VerifyRing.
// v4 snapshots list the whole tree and every override in the same
// [child, parent, w] and [out, in] forms under "tree" and "overrides";
// they still restore, as do v3 journals.
//
// Per event, the work follows what the repair touched.  The session's
// repair.Patcher owns the ring and the cumulative fault set: every
// local repair, from either tier, reaches the ring as a successor-edit
// delta that the Patcher applies in place and proves valid from its
// seams alone, and the Removed/Added lists fall out of the same walk.
// Re-embeds replace the ring whole and are diffed against the old one
// with two node bitsets.  The ring hash (journal v4) is the sum mod
// 2⁶⁴ of a SplitMix64 hash of every directed ring hop, which the
// Patcher moves by the hops a delta rewrote, so no event hashes the
// whole ring; a session restored from an older journal keeps that
// journal's FNV hash of the node sequence.  Since no
// event verifies the whole ring, every journal snapshot first audits it
// with the full topology check (VerifyRing, or VerifyRuns over the
// patcher's runs when the snapshot omits the ring); a ring that fails is not
// snapshotted (Restore replays from an older point) and the failure is
// counted in session_ring_audit_failures_total.  An event is encoded
// by one hand-written encoder, Event.AppendJSON, which writes exactly
// the bytes encoding/json would: the journal appends each line into
// its writer's reused buffer, replication bodies are built from it,
// and Event.MarshalJSON returns it to every encoding/json caller (fault
// responses, watch frames), so no event field is encoded by
// reflection.  The watch buffer is a ring of the newest eventBuffer
// events, so publishing moves none of them.
//
// A ring read costs about one pass over its body at each end of the
// wire.  The handler copies only the int32 ring under the session lock
// and streams the labels to the connection through one pooled chunk,
// label by label through topology.Network.AppendLabel (WriteRing); the
// client decodes the array as Labels, one string sliced into every
// label.  The bytes are exactly those encoding/json writes for
// StateJSON.
package session

import (
	"errors"
	"fmt"
	"slices"
	"sort"
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
	// cumulative deduplicated fault count, and the ring hash journal
	// replay verifies, in hex: since journal v4 the sum mod 2⁶⁴ of a
	// SplitMix64 hash of each directed ring hop (repair.Patcher.RingHash),
	// and in older journals an FNV-64a hash of the node sequence.
	RingLength int    `json:"ring_length,omitempty"`
	LowerBound int    `json:"lower_bound,omitempty"`
	FaultCount int    `json:"fault_count,omitempty"`
	RingHash   string `json:"ring_hash,omitempty"`
	ElapsedNs  int64  `json:"elapsed_ns,omitempty"`

	// Ring delta: nodes that left and joined the ring (repair.Diff).
	// Omitted when more than 128 nodes changed, flagged by
	// DeltaTruncated.
	Removed        []int `json:"removed,omitempty"`
	Added          []int `json:"added,omitempty"`
	DeltaTruncated bool  `json:"delta_truncated,omitempty"`

	// snapshot events (journal-only): the state to resume from.  Ring
	// is omitted when the patcher state regenerates it (an FFC-owned
	// De Bruijn ring); builds before journal v4 always wrote it.
	Ring       []int         `json:"ring,omitempty"`
	FaultNodes []int         `json:"fault_nodes,omitempty"`
	FaultEdges [][2]int      `json:"fault_edges,omitempty"`
	Patcher    *repair.State `json:"patcher,omitempty"`
	Stats      *Stats        `json:"stats,omitempty"`
}

// repairSemVer identifies the journal's repair-decision semantics and
// format.  Bump it whenever the deterministic repair path changes shape
// (which ring a given fault history produces) or the journal format
// does: 2 = the bidirectional lifecycle with star-reorder link
// absorption; 3 = the layered repair chain (splice tier between
// structural repair and re-embed, multi-hop bypass heal); 4 = journal
// v4, the same decisions as 3 with the edge-sum ring hash and snapshots
// that omit a ring the patcher state regenerates; 5 = journal v5, the
// same decisions and hash as 4 with the FFC tier's snapshot state as a
// diff over the fault-free embedding.  Journals without a stamp predate
// the versioning.
const repairSemVer = 5

// decisionSemVer is the repairSemVer that last changed repair
// decisions: journals stamped from it up to repairSemVer replay exactly.
const decisionSemVer = 3

// edgeHashSemVer is the first repairSemVer whose journals carry the
// edge-sum ring hash; older journals keep FNV (ringHash).
const edgeHashSemVer = 4

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

	mu sync.Mutex
	// patcher owns the ring and the cumulative fault set.
	patcher *repair.Patcher
	// hash is the ring hash in hex, set by rehashLocked once per ring
	// change and read by every event, state snapshot and journal
	// snapshot.  fnvHash marks a session restored from a journal older
	// than v4, which keeps hashing its journal with ringHash over the
	// ring materialized into fnvRing.
	hash      string
	fnvHash   bool
	fnvRing   []int32
	seq       uint64
	stats     Stats
	journal   JournalWriter // nil when persistence is off
	sinceSnap int
	closed    bool

	// events is the watch buffer of recent events for watchers and the
	// trace endpoint: it grows to eventBuffer, then wraps as a ring
	// whose oldest event is events[head] (see watchedLocked).  notify is
	// closed and replaced on every publish.
	events []Event
	head   int
	notify chan struct{}
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
	st := s.stateLocked()
	if includeRing {
		st.Ring = s.patcher.RingInts()
	}
	return st
}

// stateRing is StateSnapshot for the HTTP state body: the State without
// its Ring, and (when includeRing) the ring's int32 node ids, written in
// one pass over the patcher's pieces into a fresh slice — the narrowest
// copy that can leave the lock.
func (s *Session) stateRing(includeRing bool) (State, []int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ring []int32
	if includeRing {
		ring = s.patcher.AppendRing(make([]int32, 0, s.patcher.RingLen()))
	}
	return s.stateLocked(), ring
}

// stateLocked returns the session's state without its ring.
func (s *Session) stateLocked() State {
	faults := s.patcher.Faults()
	return State{
		Name:       s.name,
		Spec:       s.spec,
		Seq:        s.seq,
		RingLength: s.patcher.RingLen(),
		LowerBound: repair.LowerBound(s.net, faults),
		RingHash:   s.hash,
		FaultNodes: append([]int(nil), faults.Nodes...),
		FaultEdges: encodeEdges(faults.Edges),
		Stats:      s.stats,
	}
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
	return s.patcher.RingInts()
}

// Faults returns the cumulative canonical fault set.
func (s *Session) Faults() topology.FaultSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.patcher.Faults()
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

// apply validates and serves one live fault or heal batch: the
// patcher's ladder resolves it (absorbLocked), then the event is
// sequenced, stamped, journaled, metered and published, so no watcher
// sees an event the journal does not hold yet, and a journal snapshot
// follows when the event cadence is due.  A rejected batch leaves the
// session's state as it was and is still journaled, so replay takes
// the same path.
func (s *Session) apply(dir direction, batch topology.FaultSet) (*Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("session %q: %w", s.name, ErrClosed)
	}
	if err := batch.Validate(s.net); err != nil {
		return nil, err
	}
	start := time.Now()
	a, err := s.absorbLocked(dir, batch)
	d := s.patcher.Diff() // empty unless the ring changed
	ev := &Event{
		Kind: dirNames[dir], Repair: a.Resolution.String(),
		RingLength: s.patcher.RingLen(), FaultCount: len(a.Next.Nodes) + len(a.Next.Edges), RingHash: s.hash,
		Removed: d.Removed, Added: d.Added, DeltaTruncated: d.Truncated,
	}
	if dir == dirFault {
		ev.AddNodes, ev.AddEdges = a.Batch.Nodes, encodeEdges(a.Batch.Edges)
	} else {
		ev.RemoveNodes, ev.RemoveEdges = a.Batch.Nodes, encodeEdges(a.Batch.Edges)
	}
	if tr := s.patcher.LastTrace(); len(tr) > 0 {
		ev.Tiers = slices.Clone(tr)
	}
	if err != nil {
		ev.Error = err.Error()
	} else {
		ev.LowerBound = repair.LowerBound(s.net, a.Next)
	}
	s.seq++
	ev.Seq = s.seq
	ev.Time = time.Now().UTC()
	ev.ElapsedNs = time.Since(start).Nanoseconds()
	s.appendJournal(*ev)
	s.mgr.metrics.record(dir, a.Resolution, ev.ElapsedNs)
	s.publishLocked(*ev)
	if s.journal != nil && s.sinceSnap >= s.mgr.opts.SnapshotEvery {
		s.writeSnapshotLocked()
	}
	return ev, err
}

// absorbLocked runs one fault or heal batch, live or replayed, through
// the patcher's ladder (repair.Patcher.Absorb), rehashes a ring it
// changed, and counts the event in the session's stats and toward the
// snapshot cadence.
func (s *Session) absorbLocked(dir direction, batch topology.FaultSet) (repair.Absorbed, error) {
	a, err := s.patcher.Absorb(dir == dirHeal, batch)
	if err == nil && a.Resolution != repair.ResNoop {
		s.rehashLocked()
	}
	s.stats.Events++
	*s.stats.count(dir, a.Resolution)++
	s.sinceSnap++
	return a, err
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

// eventBuffer is the per-session count of recent events retained for
// watchers and the trace endpoint.
const eventBuffer = 256

// publishLocked adds the event to the watch buffer, over the oldest
// once the buffer is full, and wakes every waiting watcher.
func (s *Session) publishLocked(ev Event) {
	if len(s.events) < eventBuffer {
		s.events = append(s.events, ev)
	} else {
		s.events[s.head] = ev
		s.head = (s.head + 1) % eventBuffer
	}
	close(s.notify)
	s.notify = make(chan struct{})
}

// watchedLocked returns the watch buffer's i-th oldest event.
func (s *Session) watchedLocked(i int) *Event {
	return &s.events[(s.head+i)%len(s.events)]
}

// EventsSince returns buffered events with Seq > after.  When none are
// available it blocks up to wait (0 = return immediately) for the next
// publish.  truncated reports that older events have been evicted from
// the buffer: the watcher should refetch the full session state.
func (s *Session) EventsSince(after uint64, wait time.Duration, cancel <-chan struct{}) (evs []Event, truncated bool) {
	deadline := time.Now().Add(wait)
	for {
		s.mu.Lock()
		evs, truncated = s.eventsSinceLocked(after)
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

// eventsSinceLocked returns the buffered events with Seq > after, in a
// slice of exactly their number (nil when there are none), and whether
// older events have been evicted from the buffer.  The buffer is
// ascending by Seq, so the first event to return is a binary search
// away: a caught-up watcher costs O(log eventBuffer).
func (s *Session) eventsSinceLocked(after uint64) (evs []Event, truncated bool) {
	n := len(s.events)
	if n > 0 && s.watchedLocked(0).Seq > after+1 {
		truncated = true
	}
	i := sort.Search(n, func(i int) bool { return s.watchedLocked(i).Seq > after })
	if i == n {
		return nil, truncated
	}
	evs = make([]Event, 0, n-i)
	for ; i < n; i++ {
		evs = append(evs, *s.watchedLocked(i))
	}
	return evs, truncated
}

// writeSnapshotLocked appends a journal-only snapshot event capturing
// the session state (patcher state, ring hash, faults, stats), resetting
// the replay horizon.  The ring itself is written only when the patcher
// state cannot regenerate it.  It first audits the ring with the full
// topology check — events check only the seams they touch — and writes
// no snapshot of a ring that fails, so Restore replays from an older
// point; the failure is counted in session_ring_audit_failures_total.
// A ring the snapshot carries is copied once and audited as written;
// one it omits is audited in place, over the patcher's runs
// (topology.VerifyRuns), so no copy of it is made.
func (s *Session) writeSnapshotLocked() {
	if s.journal == nil {
		return
	}
	faults := s.patcher.Faults()
	state, regenerates := s.patcher.Snapshot()
	var ring []int
	if !regenerates {
		ring = s.patcher.RingInts()
	}
	if !s.auditLocked(ring, faults) {
		s.mgr.metrics.auditFailures.Inc()
		s.sinceSnap = 0
		return
	}
	stats := s.stats
	s.appendJournal(Event{
		Seq:        s.seq,
		Time:       time.Now().UTC(),
		Kind:       "snapshot",
		RingHash:   s.hash,
		RingLength: s.patcher.RingLen(),
		Ring:       ring,
		FaultNodes: faults.Nodes,
		FaultEdges: encodeEdges(faults.Edges),
		Patcher:    state,
		Stats:      &stats,
	})
	s.sinceSnap = 0
}

// auditLocked reports whether the patcher's ring passes the full
// topology check around faults: ring itself when the caller copied it,
// else the patcher's runs in place.
func (s *Session) auditLocked(ring []int, faults topology.FaultSet) bool {
	if ring != nil {
		return topology.VerifyRing(s.net, ring, faults)
	}
	return topology.VerifyRuns(s.net, s.patcher.RingLen(), s.patcher.Runs(), faults)
}

// restoreSnapshotLocked adopts a journal snapshot event: the patcher
// state with the snapshot's ring, or with the ring the FFC tier
// regenerates when the snapshot omits it, plus the faults, sequence and
// stats.  The ring is adopted only if it hashes to the snapshot's hash
// and passes the full topology audit around the snapshot's faults;
// on false the session must be rebuilt, its patcher is spent.
func (s *Session) restoreSnapshotLocked(ev Event) bool {
	faults := topology.FaultSet{Nodes: ev.FaultNodes, Edges: decodeEdges(ev.FaultEdges)}.Canonical()
	if faults.Validate(s.net) != nil || s.patcher.Restore(ev.Patcher, ev.Ring, faults) != nil {
		return false
	}
	s.rehashLocked()
	if s.hash != ev.RingHash || !s.auditLocked(nil, faults) {
		return false
	}
	s.seq = ev.Seq
	if ev.Stats != nil {
		s.stats = *ev.Stats
	}
	return true
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

// rehashLocked sets hash from the patcher's ring: the patcher's
// edge-sum hash, kept up to date by every ring change, or for a session
// of a journal older than v4 a full ringHash pass.
func (s *Session) rehashLocked() {
	if s.fnvHash {
		s.fnvRing = s.patcher.AppendRing(s.fnvRing[:0])
		s.hash = ringHash(s.fnvRing)
		return
	}
	s.hash = strconv.FormatUint(s.patcher.RingHash(), 16)
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
// an 8-byte little-endian word, rendered in hex: the ring hash of
// journals older than v4, which replay still verifies against it.
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

// ErrNoSession is the sentinel wrapped by Manager.Delete and
// Manager.Release when no session of that name is live; check with
// errors.Is(err, session.ErrNoSession).
var ErrNoSession = errors.New("session: no session")
