package session

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"debruijnring/internal/repair"
	"debruijnring/obs"
	"debruijnring/topology"
)

// TestRestoreRejectsTamperedSnapshot gives a journal's final snapshot
// the session's ring (the form a snapshot takes when the patcher state
// cannot regenerate it), corrupts that ring and empties the patcher
// state, so nothing but the snapshot's own hash and a ring check stands
// between the corrupt ring and the restored session.  Restore must fall
// back to replay from creation, count the fallback and serve the
// journaled ring.  A marker in the snapshot's stats tells an adopted
// snapshot from a replay.
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
			ev.RingHash = edgeHashHex(t, s.Network(), ev.Ring)
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
					ev.Ring = append([]int(nil), want.Ring...)
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

			reg := obs.NewRegistry()
			m2 := NewManager(reg, Options{Dir: dir})
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
			if n := snapshotFallbacks(reg); n != map[bool]int64{true: 0, false: 1}[tc.adopted] {
				t.Errorf("session_restore_snapshot_fallbacks_total = %d with the snapshot adopted = %v", n, tc.adopted)
			}
			ring := s2.Ring()
			if !topology.VerifyRing(s2.Network(), ring, s2.Faults()) {
				t.Error("restored ring fails VerifyRing")
			}
			if re := edgeHashHex(t, s2.Network(), ring); got.RingHash != want.RingHash || re != want.RingHash || got.Seq != want.Seq {
				t.Errorf("restored ring hash %s (recomputed %s) at seq %d, want %s at seq %d",
					got.RingHash, re, got.Seq, want.RingHash, want.Seq)
			}
		})
	}
}

// TestSnapshotAuditSkipsCorruptRing feeds the periodic audit two bad
// rings in a live session: one the FFC tier regenerates, audited over
// the patcher's runs, with a hop the network denies; then a corrupt ring
// restored into the patcher.  The audit must refuse to snapshot either,
// count each failure, and leave the journal's older snapshot as the
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
	if err != nil || ev.Repair != "local" {
		t.Fatalf("fault: %+v, %v; want a local repair", ev, err)
	}
	failures := func() int64 {
		return reg.Snapshot().Counters["session_ring_audit_failures_total"]
	}
	path := journalPath(dir, "audit")
	if n, seq := snapshotCount(t, path); n != 1 || seq != ev.Seq || failures() != 0 {
		t.Fatalf("valid ring: %d snapshots (last at seq %d, want %d), %d audit failures", n, seq, ev.Seq, failures())
	}

	s.mu.Lock()
	if _, regenerates := s.patcher.Snapshot(); !regenerates {
		s.mu.Unlock()
		t.Fatal("the FFC tier does not regenerate the ring: the run-walking audit is not reached")
	}
	ring := s.patcher.RingInts()
	net := s.net
	s.net = severedNet{net.(*topology.DeBruijn), topology.Edge{From: ring[5], To: ring[6]}}
	s.seq++
	s.writeSnapshotLocked()
	s.net = net
	s.mu.Unlock()
	if n, seq := snapshotCount(t, path); n != 1 || seq != ev.Seq {
		t.Fatalf("a ring failing the run-walking audit was snapshotted: %d snapshots, last at seq %d", n, seq)
	}
	if got := failures(); got != 1 {
		t.Fatalf("session_ring_audit_failures_total = %d, want 1", got)
	}

	s.mu.Lock()
	ring[1], ring[len(ring)/2] = ring[len(ring)/2], ring[1]
	if err := s.patcher.Restore(nil, ring, s.patcher.Faults()); err != nil {
		t.Fatal(err)
	}
	s.hash = edgeHashHex(t, s.Network(), ring)
	s.seq++ // as if an event had produced the corrupt ring
	s.writeSnapshotLocked()
	s.mu.Unlock()
	if n, seq := snapshotCount(t, path); n != 1 || seq != ev.Seq {
		t.Fatalf("corrupt ring was snapshotted: %d snapshots, last at seq %d", n, seq)
	}
	if got := failures(); got != 2 {
		t.Fatalf("session_ring_audit_failures_total = %d, want 2", got)
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

// severedNet is a De Bruijn network that denies one of its links: a
// ring through that hop fails the audit while the session's patcher,
// which holds the real network, still regenerates it.
type severedNet struct {
	*topology.DeBruijn
	cut topology.Edge
}

func (n severedNet) IsEdge(u, v int) bool {
	return (topology.Edge{From: u, To: v}) != n.cut && n.DeBruijn.IsEdge(u, v)
}

// snapshotCount is the number of snapshot events in a journal, and the
// seq of the last.
func snapshotCount(t *testing.T, path string) (n int, lastSeq uint64) {
	t.Helper()
	events, err := readJournal(path)
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

// discardJournal is a JournalWriter that keeps nothing.
type discardJournal struct{}

func (discardJournal) Append(Event) error { return nil }
func (discardJournal) Sync() error        { return nil }
func (discardJournal) Close() error       { return nil }

// TestSnapshotCopiesNoRing: a snapshot whose ring the FFC tier
// regenerates allocates far less than one copy of the ring (a B(2,14)
// ring is 64 KiB as int32 and 128 KiB as []int): it is audited over
// the patcher's runs, in place, with a 2 KiB node set (pooled, and
// remade when the pool drops it).
func TestSnapshotCopiesNoRing(t *testing.T) {
	m := NewManager(nil, Options{})
	defer m.Close()
	s, err := m.Create("nocopy", "debruijn(2,14)", topology.NodeFaults(1000))
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, regenerates := s.patcher.Snapshot(); !regenerates {
		t.Fatal("the FFC tier does not regenerate the ring")
	}
	s.journal = discardJournal{}
	s.writeSnapshotLocked() // fill the pool
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		s.writeSnapshotLocked()
	}
	runtime.ReadMemStats(&after)
	s.journal = nil
	if perSnap, limit := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(s.patcher.RingLen()); perSnap > limit {
		t.Errorf("a B(2,14) snapshot allocates %d bytes, past a quarter of its int32 ring (%d)", perSnap, limit)
	}
	if got := m.metrics.auditFailures.Value(); got != 0 {
		t.Fatalf("%d audit failures on a valid ring", got)
	}
}

// edgeHashHex recomputes from scratch the journal v4 hash of ring on
// net, as Session renders it.
func edgeHashHex(t testing.TB, net topology.RingEmbedder, ring []int) string {
	t.Helper()
	p := repair.For(net)
	if err := p.Restore(nil, ring, topology.FaultSet{}); err != nil {
		t.Fatal(err)
	}
	return strconv.FormatUint(p.RingHash(), 16)
}

// journalHash recomputes from scratch the hash s keeps for ring: FNV
// for a session of a journal older than v4, the edge-sum hash otherwise.
func journalHash(t testing.TB, s *Session, ring []int) string {
	if s.fnvHash {
		return ringHash(ring)
	}
	return edgeHashHex(t, s.Network(), ring)
}

// snapshotFallbacks reads session_restore_snapshot_fallbacks_total.
func snapshotFallbacks(reg *obs.Registry) int64 {
	return reg.Snapshot().Counters["session_restore_snapshot_fallbacks_total"]
}

// TestRestoreSnapshotFallbacks pins when Restore gives up on a snapshot.
// Clean restores — every fixture journal, v3 to v5, and a fresh v5
// journal whose final snapshot holds only the FFC state — adopt it,
// reproduce the live state JSON byte for byte (ring array and rotation
// included) and leave session_restore_snapshot_fallbacks_total at 0.
// The v4 fixture's whole-tree snapshot tampered in its overrides, its
// tree, its faulty necklaces or its hash, and the fresh journal's v5
// diff tampered in a slot, a label's centre, a necklace's link or its
// version, must fall back to replay from creation, reach the same state
// and bump the counter.
func TestRestoreSnapshotFallbacks(t *testing.T) {
	restore := func(t *testing.T, path, name string, mutate func(ev *Event)) (*Session, int64) {
		t.Helper()
		events, err := readJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		last := -1
		for i, ev := range events {
			if ev.Kind == "snapshot" {
				last = i
			}
		}
		if last < 0 {
			t.Fatal("journal holds no snapshot")
		}
		mutate(&events[last])
		dir := t.TempDir()
		var lines []byte
		for _, ev := range events {
			line, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(append(lines, line...), '\n')
		}
		if err := os.WriteFile(journalPath(dir, name), lines, 0o644); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		restored, errs := NewManager(reg, Options{Dir: dir}).Restore()
		if len(errs) > 0 || len(restored) != 1 {
			t.Fatalf("restore: %v", errs)
		}
		return restored[0], snapshotFallbacks(reg)
	}
	keep := func(*Event) {}

	for _, path := range fixtureJournals(t) {
		name := strings.TrimSuffix(filepath.Base(path), journalExt)
		s, n := restore(t, path, name, keep)
		if got, want := stateJSON(t, s), readFixtureState(t, path); n != 0 || !bytes.Equal(got, want) {
			t.Errorf("%s: %d snapshot fallbacks, restored state\n got %s\nwant %s", name, n, got, want)
		}
	}

	v4 := filepath.Join("testdata", "journals", "b28-seed107-v4"+journalExt)
	for _, tc := range []struct {
		name   string
		tamper func(st *repair.FFCState, ev *Event)
	}{
		{"override", func(st *repair.FFCState, _ *Event) {
			st.Overrides[0][1] = (st.Overrides[0][1] + 1) % 256
		}},
		{"tree parent", func(st *repair.FFCState, _ *Event) {
			for i, e := range st.Tree {
				if e[1] != st.Root {
					st.Tree[i][1] = st.Root
					return
				}
			}
			t.Fatal("no tree edge hangs off a non-root necklace")
		}},
		{"faulty list missing a necklace", func(st *repair.FFCState, _ *Event) {
			if len(st.Faulty) == 0 {
				t.Fatal("the snapshot names no faulty necklace")
			}
			st.Faulty = st.Faulty[1:]
		}},
		{"label out of range", func(st *repair.FFCState, _ *Event) {
			st.Tree[0][2] = 1 << 7 // B(2,8) labels are 7-digit words
		}},
		{"two centres", func(st *repair.FFCState, _ *Event) {
			for j, e := range st.Tree {
				if e[1] != st.Tree[0][1] {
					st.Tree[j][2] = st.Tree[0][2]
					return
				}
			}
			t.Fatal("every tree edge hangs off one necklace")
		}},
		{"hash", func(_ *repair.FFCState, ev *Event) {
			ev.RingHash = map[bool]string{true: "1", false: "0"}[ev.RingHash[0] == '0'] + ev.RingHash[1:]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, n := restore(t, v4, "b28-seed107-v4", func(ev *Event) {
				if ev.Patcher == nil || ev.Patcher.Tier != "ffc" || ev.Patcher.State.FFCState.Diff != nil {
					t.Fatalf("final v4 snapshot is not a whole FFC state: %+v", ev.Patcher)
				}
				tc.tamper(ev.Patcher.State.FFCState, ev)
			})
			if got, want := stateJSON(t, s), readFixtureState(t, v4); n != 1 || !bytes.Equal(got, want) {
				t.Fatalf("%d snapshot fallbacks, restored state\n got %s\nwant %s", n, got, want)
			}
		})
	}

	src := t.TempDir()
	m := NewManager(nil, Options{Dir: src, SnapshotEvery: 4})
	live, err := m.Create("v5", "debruijn(2,8)", topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []int{87, 229, 52, 140, 101} {
		if _, err := live.AddFaults(topology.NodeFaults(x)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := live.RemoveFaults(topology.NodeFaults(229)); err != nil {
		t.Fatal(err)
	}
	m.Close()
	want := stateJSON(t, live)
	path := journalPath(src, "v5")

	s, n := restore(t, path, "v5", func(ev *Event) {
		if ev.Ring != nil || ev.Patcher == nil || ev.Patcher.Tier != "ffc" || ev.Patcher.State.FFCState.Diff == nil {
			t.Fatalf("final snapshot is not an FFC diff without a ring: ring %d nodes, patcher %+v", len(ev.Ring), ev.Patcher)
		}
		if d := ev.Patcher.State.FFCState.Diff; len(d.Overrides) != 0 || !slices.ContainsFunc(d.Tree, func(e [3]int) bool { return e[2] >= 0 }) {
			t.Fatalf("final snapshot's diff re-hangs no necklace or lists a reordered star: %+v", d)
		}
	})
	if got := stateJSON(t, s); n != 0 || !bytes.Equal(got, want) {
		t.Fatalf("clean v5 restore: %d snapshot fallbacks, state\n got %s\nwant %s", n, got, want)
	}

	// rehung returns the index of a diff link that hangs its necklace.
	rehung := func(d *repair.FFCDiff) int {
		i := slices.IndexFunc(d.Tree, func(e [3]int) bool { return e[2] >= 0 })
		if i < 0 {
			t.Fatal("the diff re-hangs no necklace")
		}
		return i
	}
	for _, tc := range []struct {
		name   string
		tamper func(d *repair.FFCDiff)
	}{
		// Every star of B(2,8) has two members, so the tier never closes
		// one out of ascending order and the diff lists no override.
		{"v5 override", func(d *repair.FFCDiff) {
			d.Overrides = [][2]int{{100, 200}}
		}},
		{"v5 slot out of range", func(d *repair.FFCDiff) {
			d.Overrides = [][2]int{{256, 0}} // B(2,8) has 256 nodes
		}},
		{"v5 repeated slot", func(d *repair.FFCDiff) {
			d.Overrides = [][2]int{{100, 200}, {100, 200}}
		}},
		{"v5 label with two centres", func(d *repair.FFCDiff) {
			// A second link by the same label, hanging a necklace the diff
			// did not list from another parent.
			e := d.Tree[rehung(d)]
			c := 1
			for slices.ContainsFunc(d.Tree, func(f [3]int) bool { return f[0] == c }) {
				c++
			}
			i, _ := slices.BinarySearchFunc(d.Tree, c, func(f [3]int, c int) int { return f[0] - c })
			d.Tree = slices.Insert(d.Tree, i, [3]int{c, (e[1] + 1) % 256, e[2]})
		}},
		{"v5 necklace hung twice", func(d *repair.FFCDiff) {
			i := rehung(d)
			e := d.Tree[i]
			d.Tree = slices.Insert(d.Tree, i+1, [3]int{e[0], e[1], (e[2] + 1) % 128})
		}},
		{"v5 unknown version", func(d *repair.FFCDiff) { d.V = 6 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, n := restore(t, path, "v5", func(ev *Event) { tc.tamper(ev.Patcher.State.FFCState.Diff) })
			if got := stateJSON(t, s); n != 1 || !bytes.Equal(got, want) {
				t.Fatalf("%d snapshot fallbacks, restored state\n got %s\nwant %s", n, got, want)
			}
		})
	}
}

// TestRestoreChainDeclinedSpliceSnapshot restores b28-seed74-v4 cut
// after its seq-41 snapshot, which a splice-owned De Bruijn chain took
// with the splice tier's bit cleared ("splicable":false: that event's
// splice declined and its re-embed was rejected).  The ring is still a
// simple cycle, so the snapshot must be adopted — no fallback — and
// restore the state a replay from creation reaches, byte for byte.  The
// snapshot's ring, tampered, must still fall back.
func TestRestoreChainDeclinedSpliceSnapshot(t *testing.T) {
	const name = "b28-seed74-v4"
	raw, err := os.ReadFile(filepath.Join("testdata", "journals", name+journalExt))
	if err != nil {
		t.Fatal(err)
	}
	var cut []byte
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		cut = append(cut, line...)
		if bytes.Contains(line, []byte(`"seq":41,`)) && bytes.Contains(line, []byte(`"kind":"snapshot"`)) {
			if !bytes.Contains(line, []byte(`"tier":"splice","state":{"splicable":false}`)) {
				t.Fatalf("seq-41 snapshot is not a declined splice snapshot: %s", line)
			}
			break
		}
	}
	restore := func(t *testing.T, journal []byte) ([]byte, int64) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(journalPath(dir, name), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		restored, errs := NewManager(reg, Options{Dir: dir}).Restore()
		if len(errs) > 0 || len(restored) != 1 {
			t.Fatalf("restore: %v", errs)
		}
		return stateJSON(t, restored[0]), snapshotFallbacks(reg)
	}
	encode := func(t *testing.T, events []Event) []byte {
		t.Helper()
		var out []byte
		for _, ev := range events {
			line, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			out = append(append(out, line...), '\n')
		}
		return out
	}

	dir := t.TempDir()
	if err := os.WriteFile(journalPath(dir, name), cut, 0o644); err != nil {
		t.Fatal(err)
	}
	events, err := readJournal(journalPath(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	snap := len(events) - 1
	want, n := restore(t, encode(t, events[:snap]))
	if n != 0 {
		t.Fatalf("replay from creation counted %d snapshot fallbacks", n)
	}
	if got, n := restore(t, cut); n != 0 || !bytes.Equal(got, want) {
		t.Fatalf("%d snapshot fallbacks, restored state\n got %s\nwant %s", n, got, want)
	}

	net, err := topology.NewDeBruijn(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		tamper func(ev *Event)
	}{
		{"swapped ring entries", func(ev *Event) {
			ev.Ring[1], ev.Ring[len(ev.Ring)/2] = ev.Ring[len(ev.Ring)/2], ev.Ring[1]
		}},
		{"swapped ring entries, matching hash", func(ev *Event) {
			ev.Ring[1], ev.Ring[len(ev.Ring)/2] = ev.Ring[len(ev.Ring)/2], ev.Ring[1]
			ev.RingHash = edgeHashHex(t, net, ev.Ring)
		}},
		{"wrong hash", func(ev *Event) { ev.RingHash = "0" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tampered := slices.Clone(events)
			ev := tampered[snap]
			ev.Ring = slices.Clone(ev.Ring)
			tc.tamper(&ev)
			tampered[snap] = ev
			if got, n := restore(t, encode(t, tampered)); n != 1 || !bytes.Equal(got, want) {
				t.Fatalf("%d snapshot fallbacks, restored state\n got %s\nwant %s", n, got, want)
			}
		})
	}
}

// restoreWatch drives events through a journaled session, then checks
// that RestoreNamed seeds the watch buffer with exactly what the live
// session's buffer held before Release: the same events, byte for
// byte, and the same truncated flag.  It returns the restored events.
func restoreWatch(t *testing.T, spec string, drive func(s *Session)) ([]Event, bool) {
	t.Helper()
	m := NewManager(nil, Options{Dir: t.TempDir(), SnapshotEvery: 8})
	defer m.Close()
	s, err := m.Create("w", spec, topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	drive(s)
	liveEvs, liveTrunc := s.EventsSince(0, 0, nil)
	live, err := json.Marshal(liveEvs)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release("w"); err != nil {
		t.Fatal(err)
	}
	r, err := m.RestoreNamed("w")
	if err != nil {
		t.Fatal(err)
	}
	evs, trunc := r.EventsSince(0, 0, nil)
	got, err := json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, live) || trunc != liveTrunc {
		t.Fatalf("restored watch buffer (truncated %v)\n got %s\nwant %s (truncated %v)", trunc, got, live, liveTrunc)
	}
	return evs, trunc
}

// TestRestoreSeedsWatchBuffer: a watcher that resumes from seq 0 after
// a restore gets the embed, fault and heal events exactly as the live
// session published and journaled them, with nothing evicted.
func TestRestoreSeedsWatchBuffer(t *testing.T) {
	evs, trunc := restoreWatch(t, "debruijn(2,6)", func(s *Session) {
		for _, v := range []int{1, 9, 22} {
			if _, err := s.AddFaults(topology.NodeFaults(v)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.RemoveFaults(topology.NodeFaults(9)); err != nil {
			t.Fatal(err)
		}
	})
	if trunc || len(evs) != 5 || evs[0].Kind != "embed" || evs[4].Kind != "heal" {
		t.Fatalf("restored watch buffer: %d events (truncated %v), want embed, 3 faults, heal", len(evs), trunc)
	}
}

// TestRestoreSeedsWatchBufferBound: a journal of more than eventBuffer
// events restores exactly its newest eventBuffer.
func TestRestoreSeedsWatchBufferBound(t *testing.T) {
	const events = eventBuffer + 44
	evs, trunc := restoreWatch(t, "debruijn(2,5)", func(s *Session) {
		for i := range events {
			var err error
			if i%2 == 0 {
				_, err = s.AddFaults(topology.NodeFaults(3))
			} else {
				_, err = s.RemoveFaults(topology.NodeFaults(3))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	// seq 1 is the embed; the events follow it.
	if last := uint64(events + 1); !trunc || len(evs) != eventBuffer || evs[0].Seq != last-eventBuffer+1 || evs[len(evs)-1].Seq != last {
		t.Fatalf("restored %d events, seqs %d..%d (truncated %v), want the newest %d",
			len(evs), evs[0].Seq, evs[len(evs)-1].Seq, trunc, eventBuffer)
	}
}
