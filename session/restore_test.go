package session

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"debruijnring/obs"
	"debruijnring/topology"
)

// TestRestoreRejectsTamperedSnapshot corrupts the ring of a journal's
// final snapshot and empties its patcher state, so nothing but the
// snapshot's own hash and a ring check stands between the corrupt ring
// and the restored session.  Restore must fall back to replay from
// creation and serve the journaled ring.  A marker in the snapshot's
// stats tells an adopted snapshot from a replay.
func TestRestoreRejectsTamperedSnapshot(t *testing.T) {
	src := t.TempDir()
	m := NewManager(nil, Options{Dir: src, SnapshotEvery: 4})
	s, err := m.Create("tamper", "debruijn(2,6)", topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var live []int
	for i := 0; i < 11; i++ {
		if len(live) < 3 && (len(live) == 0 || rng.Intn(3) > 0) {
			x := rng.Intn(64)
			if _, err := s.AddFaults(topology.NodeFaults(x)); err == nil {
				live = append(live, x)
			}
			continue
		}
		j := rng.Intn(len(live))
		if _, err := s.RemoveFaults(topology.NodeFaults(live[j])); err != nil {
			t.Fatal(err)
		}
		live = append(live[:j], live[j+1:]...)
	}
	m.Close()
	want := s.StateSnapshot(true)
	events, err := readJournal(journalPath(src, "tamper"))
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	for i, ev := range events {
		if ev.Kind == "snapshot" {
			last = i
		}
	}
	if last < 0 || events[last].RingHash != want.RingHash || len(events[last].FaultNodes) == 0 {
		t.Fatalf("final snapshot missing or not at the final faulted state (index %d)", last)
	}

	const marker = 1000
	for _, tc := range []struct {
		name    string
		tamper  func(ev *Event)
		adopted bool
	}{
		{"intact ring, empty patcher", func(ev *Event) {}, true},
		{"swapped ring entries", func(ev *Event) {
			ev.Ring[1], ev.Ring[len(ev.Ring)/2] = ev.Ring[len(ev.Ring)/2], ev.Ring[1]
		}, false},
		{"swapped ring entries, matching hash", func(ev *Event) {
			ev.Ring[1], ev.Ring[len(ev.Ring)/2] = ev.Ring[len(ev.Ring)/2], ev.Ring[1]
			ev.RingHash = ringHash(ev.Ring)
		}, false},
		{"intact ring, wrong hash", func(ev *Event) { ev.RingHash = "0" }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			f, err := os.Create(journalPath(dir, "tamper"))
			if err != nil {
				t.Fatal(err)
			}
			w := bufio.NewWriter(f)
			for i, ev := range events {
				if i == last {
					ev.Ring = append([]int(nil), ev.Ring...)
					ev.Patcher = nil
					stats := *ev.Stats
					stats.Events += marker
					ev.Stats = &stats
					tc.tamper(&ev)
				}
				line, err := json.Marshal(ev)
				if err != nil {
					t.Fatal(err)
				}
				w.Write(append(line, '\n'))
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			f.Close()

			m2 := NewManager(nil, Options{Dir: dir})
			defer m2.Close()
			if _, errs := m2.Restore(); len(errs) > 0 {
				t.Fatalf("restore: %v", errs)
			}
			s2, ok := m2.Get("tamper")
			if !ok {
				t.Fatal("session not restored")
			}
			got := s2.StateSnapshot(true)
			if adopted := got.Stats.Events == want.Stats.Events+marker; adopted != tc.adopted {
				t.Errorf("snapshot adopted = %v, want %v", adopted, tc.adopted)
			}
			ring := s2.Ring()
			if !topology.VerifyRing(s2.Network(), ring, s2.Faults()) {
				t.Error("restored ring fails VerifyRing")
			}
			if got.RingHash != want.RingHash || ringHash(ring) != want.RingHash || got.Seq != want.Seq {
				t.Errorf("restored ring hash %s (recomputed %s) at seq %d, want %s at seq %d",
					got.RingHash, ringHash(ring), got.Seq, want.RingHash, want.Seq)
			}
		})
	}
}

// TestSnapshotAuditSkipsCorruptRing injects a corrupt ring into a live
// session: the periodic full-VerifyRing audit must refuse to snapshot
// it, count the failure, and leave the journal's older snapshot as the
// restore point.
func TestSnapshotAuditSkipsCorruptRing(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m := NewManager(reg, Options{Dir: dir, SnapshotEvery: 1})
	s, err := m.Create("audit", "debruijn(2,6)", topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := s.AddFaults(topology.NodeFaults(21))
	if err != nil {
		t.Fatal(err)
	}
	failures := func() int64 {
		return reg.Snapshot().Counters["session_ring_audit_failures_total"]
	}
	snapshots := func() (n int, lastSeq uint64) {
		events, err := readJournal(journalPath(dir, "audit"))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if e.Kind == "snapshot" {
				n, lastSeq = n+1, e.Seq
			}
		}
		return n, lastSeq
	}
	if n, seq := snapshots(); n != 1 || seq != ev.Seq || failures() != 0 {
		t.Fatalf("valid ring: %d snapshots (last at seq %d, want %d), %d audit failures", n, seq, ev.Seq, failures())
	}

	s.mu.Lock()
	ring := s.ring.seq
	ring[1], ring[len(ring)/2] = ring[len(ring)/2], ring[1]
	s.hash = ringHash(ring)
	s.seq++ // as if an event had produced the corrupt ring
	s.writeSnapshotLocked()
	s.mu.Unlock()
	if n, seq := snapshots(); n != 1 || seq != ev.Seq {
		t.Fatalf("corrupt ring was snapshotted: %d snapshots, last at seq %d", n, seq)
	}
	if got := failures(); got != 1 {
		t.Fatalf("session_ring_audit_failures_total = %d, want 1", got)
	}
	m.Close()
	restored, errs := NewManager(nil, Options{Dir: dir}).Restore()
	if len(errs) > 0 || len(restored) != 1 {
		t.Fatalf("restore: %v", errs)
	}
	if st := restored[0].StateSnapshot(true); st.RingHash != ev.RingHash || !topology.VerifyRing(s.Network(), st.Ring, topology.NodeFaults(21)) {
		t.Fatal("restore did not come back to the last audited ring")
	}
}
