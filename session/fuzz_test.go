package session

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"debruijnring/topology"
)

// fuzzJournalBytes builds a genuine journal — creation, embeds, fault
// and heal events, a snapshot — and returns its raw JSONL bytes as the
// fuzz seed.
func fuzzJournalBytes(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	m := NewManager(nil, Options{Dir: dir, SnapshotEvery: 4})
	s, err := m.Create("fz", "debruijn(2,6)", topology.FaultSet{})
	if err != nil {
		tb.Fatal(err)
	}
	ring := s.Ring()
	if _, err := s.AddFaults(topology.NodeFaults(ring[7])); err != nil {
		tb.Fatal(err)
	}
	// Some ring links resist both absorption and mixed re-embedding
	// (e.g. the root's only exit); scan for one the session accepts.
	linked := false
	for j := 2; j < 20 && !linked; j++ {
		cur := s.Ring()
		e := topology.Edge{From: cur[j], To: cur[j+1]}
		if _, err := s.AddFaults(topology.EdgeFaults(e)); err == nil {
			linked = true
		}
	}
	if !linked {
		tb.Fatal("no absorbable ring link found for the seed journal")
	}
	if _, err := s.RemoveFaults(topology.NodeFaults(ring[7])); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.AddFaults(topology.NodeFaults(ring[20])); err != nil {
		tb.Fatal(err)
	}
	m.Close()
	data, err := os.ReadFile(filepath.Join(dir, "fz.journal"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzJournalReplay mutates journal bytes and asserts Manager.Restore
// either reproduces a consistent session — the replayed ring passes
// VerifyRing against the replayed fault set, hash chain verified — or
// rejects the journal cleanly.  It must never panic and never accept a
// corrupted ring.  The corpus holds every journal format: a fresh v5
// journal, whose FFC snapshots are diffs over the base, the v3 fixture
// journals, and the v4 and v5 fixtures, renamed to the session the fuzz
// body restores.
func FuzzJournalReplay(f *testing.F) {
	seed := fuzzJournalBytes(f)
	f.Add(seed)
	for _, path := range []string{"b28-seed74", "b28-seed107"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "journals", path+journalExt))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.ReplaceAll(raw, []byte(`"name":"`+path+`"`), []byte(`"name":"fz"`)))
	}
	// A truncated journal (torn final write) must restore cleanly.
	if i := bytes.LastIndexByte(seed[:len(seed)-1], '\n'); i > 0 {
		f.Add(seed[:i+5])
	}
	// Flipped bytes in the middle of the event stream.
	flip := append([]byte(nil), seed...)
	flip[len(flip)/2] ^= 0x20
	f.Add(flip)
	f.Add([]byte("{\"seq\":1,\"kind\":\"created\",\"name\":\"fz\",\"spec\":\"debruijn(2,6)\"}\n"))
	f.Add([]byte("not json at all\n"))
	for _, path := range []string{"b28-seed107-v4", "b28-seed107-v5"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "journals", path+journalExt))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.ReplaceAll(raw, []byte(`"name":"`+path+`"`), []byte(`"name":"fz"`)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fz.journal"), data, 0o644); err != nil {
			t.Skip()
		}
		m := NewManager(nil, Options{Dir: dir})
		restored, errs := m.Restore()
		defer m.Close()
		_ = errs // rejected journals are reported, never panicked on
		for _, s := range restored {
			ring := s.Ring()
			faults := s.Faults()
			if err := faults.Validate(s.Network()); err != nil {
				t.Fatalf("restored session carries invalid faults: %v", err)
			}
			if len(ring) > 0 && !topology.VerifyRing(s.Network(), ring, faults) {
				t.Fatalf("restored session carries a corrupt ring (%d nodes, faults %s)",
					len(ring), faults.Key())
			}
			// The restored state must be internally consistent enough to
			// keep serving: a snapshot of it round-trips, its hash the one
			// the journal's own version computes.
			st := s.StateSnapshot(true)
			if st.RingLength != len(ring) || st.RingHash != journalHash(t, s, ring) {
				t.Fatalf("restored state snapshot disagrees with the session ring")
			}
		}
	})
}
