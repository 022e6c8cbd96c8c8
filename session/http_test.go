package session

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"debruijnring/obs"
)

func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(obs.NewRegistry(), opts)
	ts := httptest.NewServer(Handler(m))
	t.Cleanup(func() {
		ts.Close()
		m.Close()
	})
	return ts, m
}

func TestHTTPSessionLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, Options{Dir: t.TempDir()})
	c := &Client{Base: ts.URL}
	ctx := context.Background()

	st, err := c.Create(ctx, CreateRequest{Name: "s1", Topology: "debruijn(2,6)"})
	if err != nil {
		t.Fatal(err)
	}
	if st.RingLength != 64 || len(st.Ring) != 64 || st.Seq != 1 {
		t.Errorf("created state = len %d ring %d seq %d", st.RingLength, len(st.Ring), st.Seq)
	}
	// Duplicate name → 409.
	if _, err := c.Create(ctx, CreateRequest{Name: "s1", Topology: "debruijn(2,6)"}); err == nil ||
		!strings.Contains(err.Error(), "409") {
		t.Errorf("duplicate create: %v", err)
	}
	// Bad requests → 4xx.
	if _, err := c.Create(ctx, CreateRequest{Name: "s?", Topology: "debruijn(2,6)"}); err == nil {
		t.Error("invalid name accepted")
	}
	if _, err := c.Create(ctx, CreateRequest{Name: "s2", Topology: "debruijn(2,6)",
		NodeFaults: []string{"zz"}}); err == nil {
		t.Error("bad fault label accepted")
	}

	// Stream a fault batch; the ring of B(2,6) contains "000001".
	res, err := c.AddFaults(ctx, "s1", FaultsRequest{NodeFaults: []string{"000001"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Event.Kind != "fault" || res.Event.Seq != 2 {
		t.Errorf("fault event = %+v", res.Event)
	}
	if res.Event.Repair != "local" && res.Event.Repair != "reembed" {
		t.Errorf("repair kind = %q", res.Event.Repair)
	}
	if res.State.RingLength >= 64 || res.State.LowerBound != 64-6 {
		t.Errorf("state after fault = %+v", res.State)
	}

	list, err := c.List(ctx)
	if err != nil || len(list) != 1 || list[0].Name != "s1" {
		t.Errorf("list = %+v, %v", list, err)
	}
	got, err := c.State(ctx, "s1")
	if err != nil || got.Seq != 2 || len(got.NodeFaults) != 1 {
		t.Errorf("state = %+v, %v", got, err)
	}

	if err := c.Delete(ctx, "s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.State(ctx, "s1"); err == nil {
		t.Error("deleted session still served")
	}
}

// TestHTTPHealRoute exercises the heal direction over the wire: DELETE
// /v1/sessions/{name}/faults re-admits a repaired batch and journals a
// "heal" event, and the session survives a restore afterwards.
func TestHTTPHealRoute(t *testing.T) {
	dir := t.TempDir()
	ts, m := newTestServer(t, Options{Dir: dir})
	c := &Client{Base: ts.URL}
	ctx := context.Background()

	if _, err := c.Create(ctx, CreateRequest{Name: "h1", Topology: "debruijn(2,6)"}); err != nil {
		t.Fatal(err)
	}
	res, err := c.AddFaults(ctx, "h1", FaultsRequest{NodeFaults: []string{"000001"}})
	if err != nil {
		t.Fatal(err)
	}
	faulted := res.State.RingLength

	// Heal it back over DELETE.
	res, err = c.RemoveFaults(ctx, "h1", FaultsRequest{NodeFaults: []string{"000001"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Event.Kind != "heal" {
		t.Errorf("event kind = %q, want heal", res.Event.Kind)
	}
	if res.Event.Repair != "local" && res.Event.Repair != "reembed" {
		t.Errorf("heal repair kind = %q", res.Event.Repair)
	}
	if len(res.Event.RemoveNodes) != 1 {
		t.Errorf("heal event removes %v", res.Event.RemoveNodes)
	}
	if res.State.RingLength != 64 || len(res.State.NodeFaults) != 0 {
		t.Errorf("state after heal = len %d, faults %v (faulted len was %d)",
			res.State.RingLength, res.State.NodeFaults, faulted)
	}

	// Healing a component that is not faulty is a noop, not an error.
	res, err = c.RemoveFaults(ctx, "h1", FaultsRequest{NodeFaults: []string{"000011"}})
	if err != nil || res.Event.Repair != "noop" {
		t.Errorf("noop heal = %+v, %v", res.Event, err)
	}
	// A heal batch with a bad label is a 400.
	if _, err := c.RemoveFaults(ctx, "h1", FaultsRequest{NodeFaults: []string{"zz"}}); err == nil {
		t.Error("bad heal label accepted")
	}
	// Unknown sessions 404.
	if _, err := c.RemoveFaults(ctx, "nope", FaultsRequest{NodeFaults: []string{"000001"}}); err == nil {
		t.Error("heal on unknown session accepted")
	}

	// The journaled heal replays: restart the manager from the journal.
	want := ""
	if s, ok := m.Get("h1"); ok {
		want = s.StateSnapshot(false).RingHash
	}
	m.Close()
	m2 := NewManager(nil, Options{Dir: dir})
	restored, errs := m2.Restore()
	if len(errs) > 0 || len(restored) != 1 {
		t.Fatalf("restore = %d sessions, errs %v", len(restored), errs)
	}
	if got := restored[0].StateSnapshot(false).RingHash; got != want {
		t.Errorf("replayed ring hash %s != live %s", got, want)
	}
	m2.Close()
}

func TestHTTPWatchLongPoll(t *testing.T) {
	ts, m := newTestServer(t, Options{})
	c := &Client{Base: ts.URL}
	ctx := context.Background()
	if _, err := c.Create(ctx, CreateRequest{Name: "w", Topology: "debruijn(2,6)"}); err != nil {
		t.Fatal(err)
	}

	// Events up to the initial embed are immediately available.
	wr, err := c.Watch(ctx, "w", 0, 0)
	if err != nil || len(wr.Events) != 1 || wr.Events[0].Kind != "embed" {
		t.Fatalf("watch = %+v, %v", wr, err)
	}

	// A blocked long-poll wakes on the next fault event.
	type watchResult struct {
		wr  *WatchResponse
		err error
	}
	done := make(chan watchResult, 1)
	go func() {
		wr, err := c.Watch(ctx, "w", 1, 5*time.Second)
		done <- watchResult{wr, err}
	}()
	time.Sleep(20 * time.Millisecond)
	s, _ := m.Get("w")
	ring := s.Ring()
	if _, err := c.AddFaults(ctx, "w", FaultsRequest{
		NodeFaults: []string{s.Network().Label(ring[5])}}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil || len(r.wr.Events) != 1 || r.wr.Events[0].Seq != 2 {
			t.Errorf("long-poll = %+v, %v", r.wr, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never returned")
	}

	// Unknown session → 404.
	if _, err := c.Watch(ctx, "nope", 0, 0); err == nil {
		t.Error("watch on missing session succeeded")
	}
}

// TestHTTPWatchBadQuery: a malformed after or a malformed or negative
// wait is answered 400 instead of replaying the buffer from 0.
func TestHTTPWatchBadQuery(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	c := &Client{Base: ts.URL}
	if _, err := c.Create(context.Background(), CreateRequest{Name: "q", Topology: "debruijn(2,6)"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"after=abc&wait=0s", http.StatusBadRequest},
		{"after=-1&wait=0s", http.StatusBadRequest},
		{"after=1.5&wait=0s", http.StatusBadRequest},
		{"after=0&wait=-1s", http.StatusBadRequest},
		{"after=0&wait=soon", http.StatusBadRequest},
		{"after=0&wait=0s", http.StatusOK},
		{"wait=0s", http.StatusOK},
	} {
		resp, err := http.Get(ts.URL + "/v1/sessions/q/watch?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("watch?%s: status %d, want %d", tc.query, resp.StatusCode, tc.want)
		}
	}
}

func TestHTTPWatchSSE(t *testing.T) {
	ts, m := newTestServer(t, Options{})
	c := &Client{Base: ts.URL}
	ctx := context.Background()
	if _, err := c.Create(ctx, CreateRequest{Name: "sse", Topology: "debruijn(2,6)"}); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/sessions/sse/watch", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// Feed one fault while the stream is open.
	go func() {
		time.Sleep(20 * time.Millisecond)
		s, _ := m.Get("sse")
		ring := s.Ring()
		c.AddFaults(ctx, "sse", FaultsRequest{NodeFaults: []string{s.Network().Label(ring[3])}})
	}()

	sc := bufio.NewScanner(resp.Body)
	var kinds []string
	deadline := time.After(10 * time.Second)
	lines := make(chan string)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for len(kinds) < 2 {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream closed early; got %v", kinds)
			}
			if strings.HasPrefix(line, "event: ") {
				kinds = append(kinds, strings.TrimPrefix(line, "event: "))
			}
		case <-deadline:
			t.Fatalf("timed out; got %v", kinds)
		}
	}
	if kinds[0] != "embed" || kinds[1] != "fault" {
		t.Errorf("SSE event kinds = %v, want [embed fault]", kinds)
	}
}

// TestHTTPRejectedBatchReturnsEvent pins the 422 path: a fault batch the
// embedder cannot serve returns the journaled rejection event to the
// client alongside the error, and the session keeps its ring.
func TestHTTPRejectedBatchReturnsEvent(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	c := &Client{Base: ts.URL}
	ctx := context.Background()
	// Q4 tolerates n−2 = 2 node faults; start at the limit.
	st, err := c.Create(ctx, CreateRequest{Name: "rej", Topology: "hypercube(4)",
		NodeFaults: []string{"0000", "0001"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.AddFaults(ctx, "rej", FaultsRequest{NodeFaults: []string{"0101", "1001"}})
	if err == nil {
		t.Fatal("over-tolerance batch unexpectedly accepted")
	}
	if res == nil || res.Event.Repair != "rejected" || res.Event.Error == "" {
		t.Fatalf("rejection event not returned: %+v", res)
	}
	if res.Event.RingLength != st.RingLength {
		t.Errorf("rejection event ring %d, want unchanged %d", res.Event.RingLength, st.RingLength)
	}
	after, err := c.State(ctx, "rej")
	if err != nil || after.RingHash != st.RingHash {
		t.Errorf("session ring changed after rejection: %v", err)
	}
}

// TestHTTPTraceEndpoint drives fault and heal batches through a De
// Bruijn session and asserts the trace endpoint reports the tier
// descents: every ring-changing event retains a record whose tiers
// name the ladder rungs that ran, and ?limit bounds the result.
func TestHTTPTraceEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	c := &Client{Base: ts.URL}
	ctx := context.Background()

	if _, err := c.Create(ctx, CreateRequest{Name: "tr", Topology: "debruijn(2,6)"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddFaults(ctx, "tr", FaultsRequest{NodeFaults: []string{"000001"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RemoveFaults(ctx, "tr", FaultsRequest{NodeFaults: []string{"000001"}}); err != nil {
		t.Fatal(err)
	}

	tr, err := c.Trace(ctx, "tr", 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "tr" || len(tr.Records) != 2 {
		t.Fatalf("trace = %+v, want 2 records", tr)
	}
	fault, heal := tr.Records[0], tr.Records[1]
	if fault.Kind != "fault" || heal.Kind != "heal" {
		t.Errorf("record kinds = %q, %q", fault.Kind, heal.Kind)
	}
	for _, rec := range tr.Records {
		if len(rec.Tiers) == 0 {
			t.Fatalf("record seq %d has no tier trace", rec.Seq)
		}
		if rec.Tiers[0].Tier != "ffc" {
			t.Errorf("seq %d: first tier = %q, want ffc (De Bruijn chain)", rec.Seq, rec.Tiers[0].Tier)
		}
		if rec.Repair == "local" && rec.Tiers[0].Touched == 0 {
			t.Errorf("seq %d: local repair touched no stars", rec.Seq)
		}
		if rec.ElapsedNs <= 0 {
			t.Errorf("seq %d: elapsed = %d", rec.Seq, rec.ElapsedNs)
		}
	}

	// The watch stream carries the same tier tags on its events.
	wr, err := c.Watch(ctx, "tr", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sawTiers bool
	for _, ev := range wr.Events {
		if len(ev.Tiers) > 0 {
			sawTiers = true
		}
	}
	if !sawTiers {
		t.Error("watch events carry no tier traces")
	}

	limited, err := c.Trace(ctx, "tr", 1)
	if err != nil || len(limited.Records) != 1 || limited.Records[0].Kind != "heal" {
		t.Fatalf("limited trace = %+v, %v", limited, err)
	}
}
