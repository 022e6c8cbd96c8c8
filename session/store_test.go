package session

import (
	"errors"
	"io/fs"
	"testing"

	"debruijnring/topology"
)

// TestDirStoreRoundtrip pins the Store contract DirStore implements:
// create/append/load fidelity, Names enumeration, fs.ErrNotExist on
// missing journals, and idempotent Remove.
func TestDirStoreRoundtrip(t *testing.T) {
	st := NewDirStore(t.TempDir())

	w, err := st.Create("alpha")
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{Seq: 0, Kind: "created", Spec: "debruijn(2,6)"},
		{Seq: 1, Kind: "embed", RingLength: 64},
		{Seq: 2, Kind: "fault", RingLength: 58},
	}
	for _, ev := range events {
		if err := w.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := st.Load("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("loaded %d events, wrote %d", len(got), len(events))
	}
	for i, ev := range got {
		if ev.Seq != events[i].Seq || ev.Kind != events[i].Kind || ev.RingLength != events[i].RingLength {
			t.Errorf("event %d = %+v, want %+v", i, ev, events[i])
		}
	}

	// Open appends to the existing journal.
	w2, err := st.Open("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(Event{Seq: 3, Kind: "heal"}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if got, _ = st.Load("alpha"); len(got) != 4 || got[3].Kind != "heal" {
		t.Fatalf("after reopen-append, journal = %d events (last %+v)", len(got), got[len(got)-1])
	}

	names, err := st.Names()
	if err != nil || len(names) != 1 || names[0] != "alpha" {
		t.Fatalf("names = %v, %v", names, err)
	}

	// Missing journals are fs.ErrNotExist — the replica's mid-stream
	// adoption path branches on exactly this.
	if _, err := st.Open("ghost"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Open(missing) = %v, want fs.ErrNotExist", err)
	}
	if _, err := st.Load("ghost"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Load(missing) = %v, want fs.ErrNotExist", err)
	}
	if err := st.Remove("ghost"); err != nil {
		t.Errorf("Remove(missing) = %v, want nil", err)
	}
	if err := st.Remove("alpha"); err != nil {
		t.Fatal(err)
	}
	if names, _ = st.Names(); len(names) != 0 {
		t.Errorf("names after remove = %v", names)
	}
}

// TestManagerClosedSentinel pins the post-Close contract: mutations on
// a closed manager or session fail with an error wrapping ErrClosed, so
// a draining server can tell shutdown races from real faults.
func TestManagerClosedSentinel(t *testing.T) {
	m := NewManager(nil, Options{Dir: t.TempDir()})
	s, err := m.Create("c", "debruijn(2,6)", topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	ring := s.Ring()
	m.Close()

	if _, err := m.Create("late", "debruijn(2,6)", topology.FaultSet{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Create after Close = %v, want ErrClosed", err)
	}
	if err := m.Delete("c"); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete after Close = %v, want ErrClosed", err)
	}
	if _, err := s.AddFaults(topology.NodeFaults(ring[1])); !errors.Is(err, ErrClosed) {
		t.Errorf("AddFaults after Close = %v, want ErrClosed", err)
	}
	if _, err := s.RemoveFaults(topology.NodeFaults(ring[1])); !errors.Is(err, ErrClosed) {
		t.Errorf("RemoveFaults after Close = %v, want ErrClosed", err)
	}
	// Closing twice is safe.
	m.Close()
}

// TestManagerCustomStore checks Options.Store overrides Dir: the
// manager journals through the injected store — the seam the fleet's
// ReplicatedStore plugs into.
func TestManagerCustomStore(t *testing.T) {
	dir := t.TempDir()
	inner := NewDirStore(dir)
	cs := &countingStore{Store: inner}
	m := NewManager(nil, Options{Store: cs, Dir: "/nonexistent-ignored"})
	if m.Store() != Store(cs) {
		t.Fatal("manager did not adopt the injected store")
	}
	s, err := m.Create("via-store", "debruijn(2,6)", topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddFaults(topology.NodeFaults(s.Ring()[1])); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if cs.creates != 1 || cs.appends < 3 {
		t.Errorf("store saw %d creates, %d appends; want 1 and ≥3", cs.creates, cs.appends)
	}
	// The journal really landed in the inner store.
	evs, err := inner.Load("via-store")
	if err != nil || len(evs) < 3 {
		t.Errorf("inner journal = %d events, %v", len(evs), err)
	}
}

// countingStore wraps a Store counting the traffic through it.
type countingStore struct {
	Store
	creates int
	appends int
}

func (c *countingStore) Create(name string) (JournalWriter, error) {
	c.creates++
	w, err := c.Store.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingWriter{JournalWriter: w, store: c}, nil
}

type countingWriter struct {
	JournalWriter
	store *countingStore
}

func (w *countingWriter) Append(ev Event) error {
	w.store.appends++
	return w.JournalWriter.Append(ev)
}

// TestJournalBeforePublish checks that every fault and heal event
// reaches the journal before watchers can see it: the store's Append
// runs under the session lock, so it reads the watch buffer the way
// EventsSince(seq-1, 0, nil) does and must not find the event there yet.
func TestJournalBeforePublish(t *testing.T) {
	ps := &publishCheckStore{Store: NewDirStore(t.TempDir()), t: t}
	ps.m = NewManager(nil, Options{Store: ps})
	s, err := ps.m.Create("order", "debruijn(2,6)", topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	ring := s.Ring()
	for _, x := range []int{ring[5], ring[20], ring[40]} {
		if _, err := s.AddFaults(topology.NodeFaults(x)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RemoveFaults(topology.NodeFaults(x)); err != nil {
			t.Fatal(err)
		}
	}
	if ps.checked != 6 {
		t.Fatalf("checked %d appends, want 6", ps.checked)
	}
	if evs, _ := s.EventsSince(1, 0, nil); len(evs) != 6 {
		t.Fatalf("watchers see %d events after the appends, want 6", len(evs))
	}
}

// publishCheckStore wraps a Store whose writers, on every fault or heal
// event, check that the manager's session has not published it yet.
type publishCheckStore struct {
	Store
	m       *Manager
	t       *testing.T
	checked int
}

func (ps *publishCheckStore) Create(name string) (JournalWriter, error) {
	w, err := ps.Store.Create(name)
	if err != nil {
		return nil, err
	}
	return &publishCheckWriter{JournalWriter: w, store: ps, name: name}, nil
}

type publishCheckWriter struct {
	JournalWriter
	store *publishCheckStore
	name  string
}

func (w *publishCheckWriter) Append(ev Event) error {
	if s, ok := w.store.m.Get(w.name); ok && (ev.Kind == "fault" || ev.Kind == "heal") {
		w.store.checked++
		if evs, _ := s.eventsSinceLocked(ev.Seq - 1); len(evs) > 0 {
			w.store.t.Errorf("seq %d: watchers see the event before the journal holds it", ev.Seq)
		}
	}
	return w.JournalWriter.Append(ev)
}
