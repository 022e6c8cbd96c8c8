package session

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"os"
	"testing"

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
