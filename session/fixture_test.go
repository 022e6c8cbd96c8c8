package session

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"debruijnring/topology"
)

// fixtureSnapshotEvery is the snapshot cadence the fixture journals
// under testdata/journals were recorded with.
const fixtureSnapshotEvery = 8

// The fixture journals were recorded by seeded fault/heal streams and
// are committed as recorded: they pin the repair decisions, ring hashes
// and journal line format of the build that wrote them.  b28-seed74 and
// b28-seed107 are B(2,8) v3 journals (FNV ring hash, a ring in every
// snapshot); the -v4 pair replays the same batches under journal v4.
// q6-seed80 is a v4 hypercube(6) stream of node and link faults and
// heals: a topology without the FFC tier, where the splice tier alone
// serves local repairs, link faults it declines are rejected (the
// hypercube embedder takes no link faults), and no f ≤ n gate applies.
// Each <name>.journal has a <name>.state.json holding the JSON of
// the live session's StateSnapshot(true) at the end of the stream.
// b28-seed107-v5 replays b28-seed107's batches once more under journal
// v5, whose FFC snapshots hold the tree as a diff over the base.
func fixtureJournals(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "journals", "*"+journalExt))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixture journals under testdata/journals (%v)", err)
	}
	return paths
}

// TestFixtureJournalsReplay restores each fixture journal twice — from
// its latest snapshot, and from creation with every snapshot stripped —
// so Restore verifies every journaled ring hash, and checks the restored
// State JSON byte for byte.  Between them the fixtures must cover every
// (direction, tier) outcome of the repair ladder.
func TestFixtureJournalsReplay(t *testing.T) {
	seen := map[string]bool{}
	for _, path := range fixtureJournals(t) {
		name := strings.TrimSuffix(filepath.Base(path), journalExt)
		events, err := readJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if ev.Kind == "fault" || ev.Kind == "heal" {
				seen[ev.Kind+"/"+ev.Repair] = true
			}
		}
		wantState := readFixtureState(t, path)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, stripSnapshots := range []bool{false, true} {
			var lines [][]byte
			for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
				if stripSnapshots && bytes.Contains(line, []byte(`"kind":"snapshot"`)) {
					continue
				}
				lines = append(lines, line)
			}
			dir := t.TempDir()
			if err := os.WriteFile(journalPath(dir, name), bytes.Join(lines, nil), 0o644); err != nil {
				t.Fatal(err)
			}
			m := NewManager(nil, Options{Dir: dir})
			restored, errs := m.Restore()
			if len(errs) > 0 || len(restored) != 1 {
				t.Fatalf("%s (snapshots stripped: %v): restore: %v", name, stripSnapshots, errs)
			}
			if got := stateJSON(t, restored[0]); !bytes.Equal(got, wantState) {
				t.Errorf("%s (snapshots stripped: %v): restored state\n got %s\nwant %s", name, stripSnapshots, got, wantState)
			}
		}
	}
	for _, dir := range []string{"fault", "heal"} {
		for _, tier := range []string{"local", "splice", "reembed", "noop", "rejected"} {
			if !seen[dir+"/"+tier] {
				t.Errorf("no fixture journal covers the %s/%s outcome", dir, tier)
			}
		}
	}
}

// TestFixtureJournalsRedrive feeds each fixture's fault and heal batches
// through a live session and checks that it writes the fixture journal
// again, line for line, up to timestamps and latencies — the repair
// decisions, ring hashes, deltas, snapshots and the journal line format
// are all unchanged — and ends in the recorded state.  A fixture older
// than this build's journal version is compared without the fields the
// journal versions since its own are defined to change: for v4, the
// repair_ver stamp and an FFC snapshot's patcher state (v5 writes it as
// a diff); for v3 also ring_hash and every snapshot's ring and patcher.
// Its repair tiers, batches, deltas, ring lengths, lower bounds and
// fault counts stay pinned line for line, and its final ring array byte
// for byte.
func TestFixtureJournalsRedrive(t *testing.T) {
	for _, path := range fixtureJournals(t) {
		name := strings.TrimSuffix(filepath.Base(path), journalExt)
		events, err := readJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		normalize := normalizeJournal
		switch events[0].RepairVer {
		case repairSemVer:
		case edgeHashSemVer:
			normalize = normalizeV4Journal
		default:
			normalize = normalizeV3Journal
		}
		dir := t.TempDir()
		m := NewManager(nil, Options{Dir: dir, SnapshotEvery: fixtureSnapshotEvery})
		created := events[0]
		s, err := m.Create(name, created.Spec, topology.FaultSet{Nodes: created.FaultNodes, Edges: decodeEdges(created.FaultEdges)})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			switch ev.Kind {
			case "fault":
				s.AddFaults(topology.FaultSet{Nodes: ev.AddNodes, Edges: decodeEdges(ev.AddEdges)})
			case "heal":
				s.RemoveFaults(topology.FaultSet{Nodes: ev.RemoveNodes, Edges: decodeEdges(ev.RemoveEdges)})
			}
		}
		if got, want := normalize(stateJSON(t, s)), normalize(readFixtureState(t, path)); got != want {
			t.Errorf("%s: live state\n got %s\nwant %s", name, got, want)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(journalPath(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		wantLines := strings.Split(normalize(want), "\n")
		gotLines := strings.Split(normalize(got), "\n")
		if len(gotLines) != len(wantLines) {
			t.Errorf("%s: live journal has %d lines, fixture %d", name, len(gotLines), len(wantLines))
		}
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("%s: journal line %d differs\n got %s\nwant %s", name, i+1, gotLines[i], wantLines[i])
			}
		}
	}
}

var (
	journalTimeRE    = regexp.MustCompile(`"time":"[^"]*"`)
	journalElapsedRE = regexp.MustCompile(`"elapsed_ns":[0-9]+`)
)

// normalizeJournal blanks the wall-clock fields of journal lines.
func normalizeJournal(b []byte) string {
	s := journalTimeRE.ReplaceAllString(string(b), `"time":""`)
	return journalElapsedRE.ReplaceAllString(s, `"elapsed_ns":0`)
}

// normalizeV3Journal is normalizeJournal for comparing a v3 journal (or
// state body) with this build's: it also drops each line's ring_hash
// and repair_ver, and a snapshot line's ring and patcher.  Each line is
// re-encoded with its keys sorted.
func normalizeV3Journal(b []byte) string {
	return normalizeFields(b, func(fields map[string]json.RawMessage) {
		delete(fields, "ring_hash")
		delete(fields, "repair_ver")
		if string(fields["kind"]) == `"snapshot"` {
			delete(fields, "ring")
			delete(fields, "patcher")
		}
	})
}

// normalizeV4Journal is normalizeJournal for comparing a v4 journal with
// this build's: it also drops each line's repair_ver and an FFC-owned
// snapshot's patcher state, the one payload journal v5 writes
// differently.  Each line is re-encoded with its keys sorted.
func normalizeV4Journal(b []byte) string {
	return normalizeFields(b, func(fields map[string]json.RawMessage) {
		delete(fields, "repair_ver")
		if bytes.HasPrefix(fields["patcher"], []byte(`{"tier":"ffc",`)) {
			delete(fields, "patcher")
		}
	})
}

// normalizeFields applies drop to the fields of each normalized journal
// line and re-encodes the line with its keys sorted.
func normalizeFields(b []byte, drop func(map[string]json.RawMessage)) string {
	lines := strings.Split(normalizeJournal(b), "\n")
	for i, line := range lines {
		var fields map[string]json.RawMessage
		if json.Unmarshal([]byte(line), &fields) != nil {
			continue
		}
		drop(fields)
		out, _ := json.Marshal(fields)
		lines[i] = string(out)
	}
	return strings.Join(lines, "\n")
}

func readFixtureState(t *testing.T, journal string) []byte {
	t.Helper()
	b, err := os.ReadFile(strings.TrimSuffix(journal, journalExt) + ".state.json")
	if err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(b, []byte("\n"))
}

func stateJSON(t *testing.T, s *Session) []byte {
	t.Helper()
	b, err := json.Marshal(s.StateSnapshot(true))
	if err != nil {
		t.Fatal(err)
	}
	return b
}
