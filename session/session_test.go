package session

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"debruijnring/obs"
	"debruijnring/topology"
)

// TestChaosTraceDeBruijn is the acceptance scenario of the session
// subsystem: a B(2,10) session absorbs node faults one at a time up to
// the paper's f ≤ n tolerance bound.  At least half of the fault events
// must be handled without a full re-embed, every intermediate ring must
// verify against the cumulative fault set, and the ring length must
// never drop below dⁿ − nf.  A server killed (no graceful shutdown, no
// final snapshot) and restored from its journal must resume the session
// with an identical ring.
func TestChaosTraceDeBruijn(t *testing.T) {
	const d, n = 2, 10
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m := NewManager(reg, Options{Dir: dir})
	s, err := m.Create("chaos", "debruijn(2,10)", topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	net := s.Network()
	size := net.Nodes() // 1024

	rng := rand.New(rand.NewSource(2026))
	var faults topology.FaultSet
	local, reembeds := 0, 0
	for i := 1; i <= n; i++ { // up to f = n faults
		x := rng.Intn(size)
		add := topology.NodeFaults(x)
		faults = faults.Union(add)
		ev, err := s.AddFaults(add)
		if err != nil {
			t.Fatalf("fault %d (node %d): %v", i, x, err)
		}
		switch ev.Repair {
		case "local", "splice", "noop":
			local++
		case "reembed":
			reembeds++
		default:
			t.Fatalf("fault %d: unexpected repair kind %q", i, ev.Repair)
		}
		ring := s.Ring()
		if !topology.VerifyRing(net, ring, faults) {
			t.Fatalf("fault %d: intermediate ring fails VerifyRing", i)
		}
		bound := size - n*len(faults.Nodes)
		if len(ring) < bound {
			t.Fatalf("fault %d: ring length %d below dⁿ−nf = %d", i, len(ring), bound)
		}
		if ev.RingLength != len(ring) || ev.LowerBound != bound {
			t.Errorf("fault %d: event bookkeeping %d/%d, want %d/%d",
				i, ev.RingLength, ev.LowerBound, len(ring), bound)
		}
	}
	if local < reembeds || local*2 < local+reembeds {
		t.Errorf("local repairs %d < 50%% of %d fault events", local, local+reembeds)
	}
	t.Logf("chaos trace: %d local, %d re-embeds", local, reembeds)

	// The manager's repair totals reflect the trace.
	es := TotalsFrom(reg.Snapshot())
	if es.LocalRepairs+es.SpliceRepairs+es.Noops+es.Reembeds != int64(n) {
		t.Errorf("repair totals %+v do not cover %d events", es, n)
	}

	wantRing := s.Ring()
	wantState := s.StateSnapshot(false)

	// Kill: no Close, no final snapshot — the journal alone carries the
	// history.  A fresh manager must replay to the identical ring.
	m2 := NewManager(obs.NewRegistry(), Options{Dir: dir})
	restored, errs := m2.Restore()
	for _, e := range errs {
		t.Errorf("restore: %v", e)
	}
	if len(restored) != 1 {
		t.Fatalf("restored %d sessions, want 1", len(restored))
	}
	s2, ok := m2.Get("chaos")
	if !ok {
		t.Fatal("restored session not registered")
	}
	gotRing := s2.Ring()
	if len(gotRing) != len(wantRing) {
		t.Fatalf("restored ring has %d nodes, want %d", len(gotRing), len(wantRing))
	}
	for i := range wantRing {
		if gotRing[i] != wantRing[i] {
			t.Fatalf("restored ring diverges at position %d", i)
		}
	}
	gotState := s2.StateSnapshot(false)
	if gotState.Seq != wantState.Seq || gotState.RingHash != wantState.RingHash {
		t.Errorf("restored state %+v != %+v", gotState, wantState)
	}
	if gotState.Stats != wantState.Stats {
		t.Errorf("restored stats %+v != %+v", gotState.Stats, wantState.Stats)
	}

	// The restored session keeps absorbing faults.
	ev, err := s2.AddFaults(topology.NodeFaults(gotRing[7]))
	if err != nil {
		t.Fatalf("post-restore fault: %v", err)
	}
	if ev.Seq != wantState.Seq+1 {
		t.Errorf("post-restore event seq %d, want %d", ev.Seq, wantState.Seq+1)
	}
}

// TestSessionSnapshotRestore drives past the snapshot cadence and
// checks restore picks up from the snapshot rather than replaying the
// whole history (and still lands on the right ring).
func TestSessionSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(nil, Options{Dir: dir, SnapshotEvery: 4})
	s, err := m.Create("snap", "debruijn(2,8)", topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		if _, err := s.AddFaults(topology.NodeFaults(rng.Intn(256))); err != nil {
			t.Fatalf("fault %d: %v", i, err)
		}
	}
	m.Close() // graceful: final snapshot written

	events, err := readJournal(journalPath(dir, "snap"))
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, ev := range events {
		if ev.Kind == "snapshot" {
			snaps++
		}
	}
	if snaps < 2 {
		t.Errorf("journal has %d snapshots, want ≥ 2 (cadence 4 over 10 events + close)", snaps)
	}

	want := s.StateSnapshot(false)
	m2 := NewManager(nil, Options{Dir: dir, SnapshotEvery: 4})
	if _, errs := m2.Restore(); len(errs) > 0 {
		t.Fatalf("restore: %v", errs)
	}
	s2, _ := m2.Get("snap")
	got := s2.StateSnapshot(false)
	if got.RingHash != want.RingHash || got.Seq != want.Seq || got.Stats != want.Stats {
		t.Errorf("restored %+v, want %+v", got, want)
	}
}

// TestSessionRejectedBatchKeepsState drives a fault load the embedder
// cannot serve and checks the session keeps its last good ring, the
// rejection is journaled, and replay reproduces it.
func TestSessionRejectedBatchKeepsState(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(nil, Options{Dir: dir})
	// Hypercube Q4 tolerates n−2 = 2 node faults.
	s, err := m.Create("hq", "hypercube(4)", topology.NodeFaults(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	before := s.StateSnapshot(false)
	// Two more faults exceed the tolerance and the patcher has no
	// spares: the batch must be rejected atomically.
	if _, err := s.AddFaults(topology.NodeFaults(5, 9)); err == nil {
		t.Fatal("over-tolerance batch unexpectedly accepted")
	}
	after := s.StateSnapshot(false)
	if after.RingHash != before.RingHash {
		t.Error("rejected batch changed the ring")
	}
	if len(after.FaultNodes) != len(before.FaultNodes) {
		t.Error("rejected batch grew the fault set")
	}
	if after.Stats.Rejected != 1 {
		t.Errorf("rejected count = %d, want 1", after.Stats.Rejected)
	}

	want := s.Ring()
	m2 := NewManager(nil, Options{Dir: dir})
	if _, errs := m2.Restore(); len(errs) > 0 {
		t.Fatalf("restore with journaled rejection: %v", errs)
	}
	s2, _ := m2.Get("hq")
	got := s2.Ring()
	if len(got) != len(want) {
		t.Fatalf("restored ring %d nodes, want %d", len(got), len(want))
	}
	if s2.StateSnapshot(false).Stats.Rejected != 1 {
		t.Error("replayed rejection not counted")
	}
}

// TestSessionWatchLongPoll publishes events from another goroutine and
// checks EventsSince wakes blocked watchers in order.
func TestSessionWatchLongPoll(t *testing.T) {
	m := NewManager(nil, Options{})
	s, err := m.Create("w", "debruijn(2,6)", topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	// Seq 1 is the initial embed event, available immediately.
	evs, truncated := s.EventsSince(0, 0, nil)
	if truncated || len(evs) != 1 || evs[0].Kind != "embed" {
		t.Fatalf("initial events = %+v (truncated %v)", evs, truncated)
	}

	done := make(chan []Event, 1)
	go func() {
		evs, _ := s.EventsSince(1, 5*time.Second, nil)
		done <- evs
	}()
	time.Sleep(20 * time.Millisecond) // let the watcher block
	if _, err := s.AddFaults(topology.NodeFaults(3)); err != nil {
		t.Fatal(err)
	}
	select {
	case evs := <-done:
		if len(evs) != 1 || evs[0].Seq != 2 || evs[0].Kind != "fault" {
			t.Errorf("watched events = %+v", evs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never woke")
	}

	// A zero-wait poll past the head returns empty.
	if evs, _ := s.EventsSince(99, 0, nil); len(evs) != 0 {
		t.Errorf("future poll returned %+v", evs)
	}
}

// TestManagerLifecycle covers name validation, duplicate creation and
// deletion semantics.
func TestManagerLifecycle(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(nil, Options{Dir: dir})
	if _, err := m.Create("bad name!", "debruijn(2,4)", topology.FaultSet{}); err == nil {
		t.Error("invalid name accepted")
	}
	if _, err := m.Create("s1", "nosuch(2)", topology.FaultSet{}); err == nil {
		t.Error("bad spec accepted")
	}
	if _, err := m.Create("s1", "debruijn(2,4)", topology.FaultSet{}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("s1", "debruijn(2,5)", topology.FaultSet{}); err == nil {
		t.Error("duplicate name accepted")
	}
	if got := len(m.List()); got != 1 {
		t.Errorf("List() = %d sessions", got)
	}
	if err := m.Delete("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "s1.journal")); !os.IsNotExist(err) {
		t.Error("journal survived deletion")
	}
	if err := m.Delete("s1"); !errors.Is(err, ErrNoSession) || err.Error() != `session: no session "s1"` {
		t.Errorf("double delete = %v, want ErrNoSession", err)
	}
	// The name is reusable after deletion.
	if _, err := m.Create("s1", "debruijn(2,4)", topology.FaultSet{}); err != nil {
		t.Errorf("recreate after delete: %v", err)
	}
	if err := m.Release("s1"); err != nil {
		t.Fatal(err)
	}
	if err := m.Release("s1"); !errors.Is(err, ErrNoSession) || err.Error() != `session: no session "s1"` {
		t.Errorf("double release = %v, want ErrNoSession", err)
	}
}

// TestSessionEdgeFaultNoopAndReembed exercises the link-fault paths of
// a De Bruijn session: an off-ring link is a noop, an on-ring link
// forces a re-embed that avoids it.
func TestSessionEdgeFaultNoopAndReembed(t *testing.T) {
	// d = 4 tolerates MAX{ψ(4)−1, φ(4)} = 2 link faults.
	m := NewManager(nil, Options{})
	s, err := m.Create("e", "debruijn(4,3)", topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	net := s.Network()
	ring := s.Ring()
	succ := make(map[int]int, len(ring))
	for i, v := range ring {
		succ[v] = ring[(i+1)%len(ring)]
	}
	// Find a link the ring does not use.
	var off topology.Edge
	found := false
	var buf []int
	for u := 0; u < net.Nodes() && !found; u++ {
		for _, w := range net.Successors(u, buf) {
			if w != u && succ[u] != w {
				off = topology.Edge{From: u, To: w}
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no off-ring link")
	}
	ev, err := s.AddFaults(topology.EdgeFaults(off))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Repair != "noop" {
		t.Errorf("off-ring link fault: repair %q, want noop", ev.Repair)
	}

	// An on-ring link fault between healthy endpoints is absorbed by
	// star reordering: no re-embed, no node leaves the ring.
	on := topology.Edge{From: ring[3], To: succ[ring[3]]}
	ev, err = s.AddFaults(topology.EdgeFaults(on))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Repair != "local" {
		t.Errorf("on-ring link fault: repair %q, want local (star reorder)", ev.Repair)
	}
	if got := len(s.Ring()); got != net.Nodes() {
		t.Errorf("link absorption dropped nodes: ring %d of %d", got, net.Nodes())
	}
	if !topology.VerifyRing(net, s.Ring(), s.Faults()) {
		t.Error("ring after link absorption fails verification")
	}

	// Healing the link is bookkeeping only.
	ev, err = s.RemoveFaults(topology.EdgeFaults(on))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Repair != "noop" {
		t.Errorf("link heal: repair %q, want noop", ev.Repair)
	}
	if len(s.Faults().Edges) != 1 {
		t.Errorf("fault set has %d link faults after heal, want 1 (the off-ring one)", len(s.Faults().Edges))
	}
}

// TestWatchBufferWraps publishes more than two buffers' worth of events:
// the watch ring keeps exactly the newest eventBuffer, oldest first,
// flags the eviction, and a watcher one event behind gets exactly one.
func TestWatchBufferWraps(t *testing.T) {
	m := NewManager(nil, Options{})
	s, err := m.Create("wrap", "debruijn(2,5)", topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 600 {
		apply := s.AddFaults
		if i%2 == 1 {
			apply = s.RemoveFaults
		}
		if _, err := apply(topology.NodeFaults(3)); err != nil {
			t.Fatal(err)
		}
	}
	last := s.StateSnapshot(false).Seq
	evs, truncated := s.EventsSince(0, 0, nil)
	if !truncated || len(evs) != eventBuffer {
		t.Fatalf("EventsSince(0): %d events, truncated %v; want %d, true", len(evs), truncated, eventBuffer)
	}
	for i, ev := range evs {
		if want := last - eventBuffer + 1 + uint64(i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	evs, truncated = s.EventsSince(last-1, 0, nil)
	if truncated || len(evs) != 1 || evs[0].Seq != last {
		t.Fatalf("EventsSince(last-1): %d events, truncated %v; want the one event %d", len(evs), truncated, last)
	}
	recs := s.Traces(0)
	if len(recs) != traceRecords || recs[0].Seq != last-traceRecords+1 || recs[len(recs)-1].Seq != last {
		t.Fatalf("Traces: %d records %d..%d, want %d ending at %d", len(recs), recs[0].Seq, recs[len(recs)-1].Seq, traceRecords, last)
	}
}
