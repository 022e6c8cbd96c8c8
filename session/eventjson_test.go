package session

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"debruijnring/internal/repair"
)

// plainEvent is Event without its methods: encoding/json encodes it by
// reflection, the reference AppendJSON and MarshalJSON must match.
type plainEvent Event

// encodeWith returns v's json.Encoder output with HTML escaping on or
// off, newline included.
func encodeWith(t testing.TB, v any, escapeHTML bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(escapeHTML)
	if err := enc.Encode(v); err != nil {
		t.Fatalf("encoding %T: %v", v, err)
	}
	return buf.Bytes()
}

// checkEventJSON compares every way an Event is encoded against the
// reflective encoding of the same fields: AppendJSON and an escape-off
// Encoder against the escape-off reference, json.Marshal and a default
// Encoder against the HTML-escaping one.
func checkEventJSON(t *testing.T, ev *Event) {
	t.Helper()
	plain := (*plainEvent)(ev)
	want := encodeWith(t, plain, false)
	if got := append(ev.AppendJSON(nil), '\n'); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON:\n got %s\nwant %s", got, want)
	}
	if got := encodeWith(t, ev, false); !bytes.Equal(got, want) {
		t.Fatalf("escape-off Encoder:\n got %s\nwant %s", got, want)
	}
	wantHTML := encodeWith(t, plain, true)
	if got := encodeWith(t, *ev, true); !bytes.Equal(got, wantHTML) {
		t.Fatalf("Encoder:\n got %s\nwant %s", got, wantHTML)
	}
	got, err := json.Marshal(*ev)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(plain); !bytes.Equal(got, want) {
		t.Fatalf("json.Marshal:\n got %s\nwant %s", got, want)
	}
}

// awkward holds the strings encoding/json escapes or rewrites: HTML
// metacharacters, quote and backslash, control bytes, invalid UTF-8,
// the JavaScript line terminators and plain non-ASCII text.
var awkward = []string{
	"<script>&amp;</script>", `say "hi"`, `back\slash`, "\x00\x01\b\f\n\r\t\x1f\x7f",
	"\xff\xfe", "trunc\xe2\x80", "\u2028line\u2029para", "déjà vu 日本 🙂", "plain", "",
}

// randEvent builds an event whose every omitempty field is set or unset
// at random, with strings drawn from awkward.
func randEvent(rng *rand.Rand) *Event {
	str := func() string {
		if rng.IntN(3) == 0 {
			return ""
		}
		s := awkward[rng.IntN(len(awkward))]
		if rng.IntN(2) == 0 {
			s += awkward[rng.IntN(len(awkward))]
		}
		return s
	}
	num := func() int {
		if rng.IntN(3) == 0 {
			return 0
		}
		return rng.IntN(1<<20) - 1<<10
	}
	ints := func() []int {
		switch rng.IntN(4) {
		case 0:
			return nil
		case 1:
			return []int{}
		}
		out := make([]int, 1+rng.IntN(6))
		for i := range out {
			out[i] = num()
		}
		return out
	}
	pairs := func() [][2]int {
		if rng.IntN(3) == 0 {
			return nil
		}
		out := make([][2]int, rng.IntN(4))
		for i := range out {
			out[i] = [2]int{num(), num()}
		}
		return out
	}
	zones := []*time.Location{time.UTC, time.FixedZone("", 5*3600+30*60), time.FixedZone("X", -(23*3600 + 59*60)), time.Local}
	ev := &Event{
		Seq:         rng.Uint64() >> rng.IntN(64),
		Time:        time.Date(rng.IntN(10000), time.Month(1+rng.IntN(12)), 1+rng.IntN(28), rng.IntN(24), rng.IntN(60), rng.IntN(60), rng.IntN(2)*rng.IntN(1e9), zones[rng.IntN(len(zones))]),
		Kind:        str(),
		Name:        str(),
		Spec:        str(),
		RepairVer:   num(),
		AddNodes:    ints(),
		AddEdges:    pairs(),
		RemoveNodes: ints(),
		RemoveEdges: pairs(),
		Repair:      str(),
		Error:       str(),
		RingLength:  num(),
		LowerBound:  num(),
		FaultCount:  num(),
		RingHash:    str(),
		ElapsedNs:   int64(num()) << rng.IntN(30),
		Removed:     ints(),
		Added:       ints(),

		DeltaTruncated: rng.IntN(2) == 0,
	}
	for range rng.IntN(4) {
		ev.Tiers = append(ev.Tiers, TierTrace{Tier: str(), Outcome: str(), Touched: num(), Elapsed: time.Duration(num())})
	}
	if rng.IntN(2) == 0 { // snapshot-only fields
		ev.Ring, ev.FaultNodes, ev.FaultEdges = ints(), ints(), pairs()
		if rng.IntN(2) == 0 {
			ev.Stats = &Stats{Events: int64(num()), LocalRepairs: int64(num()), Noops: int64(num()), SpliceHeals: int64(num())}
		}
		switch rng.IntN(4) {
		case 1:
			ev.Patcher = &repair.State{TierState: repair.TierState{SpliceState: &repair.SpliceState{Splicable: rng.IntN(2) == 0}}}
		case 2:
			ev.Patcher = &repair.State{Tier: "splice", State: &repair.TierState{SpliceState: &repair.SpliceState{}}}
		case 3:
			diff := &repair.FFCDiff{V: 5}
			for range rng.IntN(3) {
				diff.Tree = append(diff.Tree, [3]int{num(), num(), num()})
				diff.Overrides = append(diff.Overrides, [2]int{num(), num()})
			}
			ev.Patcher = &repair.State{Tier: str(), State: &repair.TierState{FFCState: &repair.FFCState{
				Root: num(), Nodes: num(), Faulty: ints(), Diff: diff,
			}}}
		}
	}
	return ev
}

// TestEventJSONProperty checks AppendJSON, MarshalJSON and both
// Encoder modes against reflection over seeded random events.
func TestEventJSONProperty(t *testing.T) {
	// A field added to Event or TierTrace must be added to AppendJSON
	// and to randEvent too.
	if n, m := reflect.TypeFor[Event]().NumField(), reflect.TypeFor[TierTrace]().NumField(); n != 26 || m != 4 {
		t.Fatalf("Event has %d fields and TierTrace %d; AppendJSON writes 26 and 4", n, m)
	}
	rng := rand.New(rand.NewPCG(31, 7))
	checkEventJSON(t, &Event{})
	for range 3000 {
		checkEventJSON(t, randEvent(rng))
	}
}

// fixtureLines returns every line of the fixture journals.
func fixtureLines(tb testing.TB) [][]byte {
	paths, err := filepath.Glob(filepath.Join("testdata", "journals", "*.journal"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no fixture journals (%v)", err)
	}
	var lines [][]byte
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			tb.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 64<<20)
		for sc.Scan() {
			lines = append(lines, bytes.Clone(sc.Bytes()))
		}
		f.Close()
		if err := sc.Err(); err != nil {
			tb.Fatal(err)
		}
	}
	return lines
}

// TestEventJSONFixtureLines pins AppendJSON to the journals on disk: a
// fixture line decodes and re-encodes to itself.
func TestEventJSONFixtureLines(t *testing.T) {
	for _, line := range fixtureLines(t) {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		if got := ev.AppendJSON(nil); !bytes.Equal(got, line) {
			t.Fatalf("re-encoded fixture line differs:\n got %s\nwant %s", got, line)
		}
		checkEventJSON(t, &ev)
	}
}

// TestMarshalJSONRefusesUnencodableTime keeps json.Marshal's error for
// a time RFC 3339 cannot carry.
func TestMarshalJSONRefusesUnencodableTime(t *testing.T) {
	for _, tm := range []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2020, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
	} {
		if _, err := json.Marshal(plainEvent{Time: tm}); err == nil {
			t.Fatalf("reference encoded %v", tm)
		}
		if _, err := json.Marshal(Event{Time: tm}); err == nil {
			t.Fatalf("MarshalJSON encoded %v", tm)
		}
	}
}

// FuzzEventJSON decodes a journal line, overwrites its string fields
// with s (raw bytes: invalid UTF-8 and control bytes survive), and
// checks every encoding of the event against reflection.  The corpus
// holds every fixture journal line.
func FuzzEventJSON(f *testing.F) {
	for _, line := range fixtureLines(f) {
		f.Add(line, "")
	}
	for _, s := range awkward {
		f.Add([]byte(`{"seq":1,"kind":"fault","tiers":[{"tier":"ffc","outcome":"ok","elapsed_ns":1}]}`), s)
	}
	f.Fuzz(func(t *testing.T, line []byte, s string) {
		var ev Event
		if json.Unmarshal(line, &ev) != nil {
			ev = Event{}
		}
		if s != "" {
			ev.Name, ev.Error, ev.RingHash = s, s, s
			if len(ev.Tiers) > 0 {
				ev.Tiers[0].Outcome = s
			}
		}
		checkEventJSON(t, &ev)
	})
}
