package fleet

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"debruijnring/session"
	"debruijnring/topology"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/control_plane.golden.txt")

// wireLog is an http.RoundTripper that records each exchange the test's
// own clients make — method, path, request body, status, the headers a
// fleet client reads, response body — as a transcript.  Traffic between
// the servers (a hand-off's stream, the router's listings) does not pass
// through it.
type wireLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *wireLog) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		body, _ = io.ReadAll(req.Body)
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(out))
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(&l.buf, "%s %s\n", req.Method, req.URL.Path)
	if len(body) > 0 {
		fmt.Fprintf(&l.buf, "> %s\n", body)
	}
	fmt.Fprintf(&l.buf, "< %d\n", resp.StatusCode)
	for _, h := range []string{"Content-Type", "Retry-After", "X-Fleet-Draining", "X-Fleet-Partial"} {
		if v := resp.Header.Get(h); v != "" {
			fmt.Fprintf(&l.buf, "< %s: %s\n", h, v)
		}
	}
	if len(out) > 0 {
		fmt.Fprintf(&l.buf, "< %s", out)
		if out[len(out)-1] != '\n' {
			l.buf.WriteByte('\n')
		}
	}
	l.buf.WriteByte('\n')
	return resp, nil
}

// note starts a transcript section.
func (l *wireLog) note(s string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(&l.buf, "## %s\n", s)
}

// TestControlPlaneWireGolden pins the fleet's peer RPCs byte for byte:
// every control endpoint a router or peer drives, through the
// ReplicaClient methods (and raw requests for the malformed-body and
// router cases), with the request bodies they send and the status,
// headers and body each endpoint answers.  Server URLs are replaced by
// their role names, so the transcript is deterministic.
func TestControlPlaneWireGolden(t *testing.T) {
	log := &wireLog{}
	hc := &http.Client{Transport: log, Timeout: 30 * time.Second}
	a, ats := newTestShard(t, "", false)
	_, bts := newTestShard(t, "", false)
	_, sts := newTestShard(t, "", true)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	ac := &ReplicaClient{Base: ats.URL, HTTP: hc}
	bc := &ReplicaClient{Base: bts.URL, HTTP: hc}
	sc := &ReplicaClient{Base: sts.URL, HTTP: hc}
	raw := func(method, url, body string) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var pe *PeerError
	conflict := func(err error) {
		t.Helper()
		if !errors.As(err, &pe) || pe.Status != http.StatusConflict {
			t.Fatalf("got %v, want a 409 PeerError", err)
		}
	}

	sess, err := a.Sessions.Create("s1", "debruijn(2,4)", topology.FaultSet{})
	must(err)
	_, err = sess.AddFaults(topology.NodeFaults(5))
	must(err)
	_, err = sess.AddFaults(topology.NodeFaults(9))
	must(err)

	log.note("replication status and re-targeting")
	_, err = bc.Replication()
	must(err)
	_, err = bc.SetTarget(sts.URL, 100)
	must(err)
	_, err = bc.SetTarget("http://elsewhere:1", 50)
	conflict(err)
	_, err = bc.SetTarget("", 101)
	must(err)
	_, err = bc.Replication()
	must(err)
	raw(http.MethodPost, bts.URL+"/v1/replication/target", "nope")

	log.note("rebalance: handoff, adopt, forget")
	_, err = ac.Handoff("s1", bts.URL, 200)
	must(err)
	_, err = ac.Handoff("s1", bts.URL, 150)
	conflict(err)
	_, err = ac.Handoff("bad/name", bts.URL, 0)
	if err == nil {
		t.Fatal("handoff of an invalid name succeeded")
	}
	raw(http.MethodGet, ats.URL+"/v1/sessions/s1", "")
	_, err = bc.Adopt("s1", 201)
	must(err)
	raw(http.MethodPost, bts.URL+"/v1/replication/adopt", "nope")
	must(ac.Forget("s1"))
	if err := bc.Forget("s1"); err == nil {
		t.Fatal("forget of a live session succeeded")
	}
	_, err = ac.Handoff("s1", bts.URL, 202)
	if err == nil {
		t.Fatal("handoff of a forgotten journal succeeded")
	}

	log.note("replica ingest, status, remove, promote")
	at := time.Date(2026, 10, 20, 6, 0, 0, 0, time.UTC)
	events := []session.Event{
		{Seq: 0, Time: at, Kind: "created", Name: "r1", Spec: "debruijn(2,4)", RepairVer: 5},
		{Seq: 1, Time: at.Add(time.Millisecond), Kind: "fault", AddNodes: []int{3}, Repair: "local", RingLength: 12, FaultCount: 1, RingHash: "9a3f"},
	}
	must(sc.Append("r1", events))
	_, err = sc.Status()
	must(err)
	must(sc.Remove("r1"))
	must(sc.Append("r2", events[:1]))
	_, err = sc.Status()
	must(err)
	_, err = sc.SetTarget("", 400)
	must(err)
	_, err = sc.Promote(350)
	conflict(err)
	raw(http.MethodPost, sts.URL+"/v1/replica/append", "nope")
	must(sc.Remove("r2"))
	_, err = sc.Promote(401)
	must(err)
	_, err = sc.Promote(402)
	must(err)
	raw(http.MethodPost, sts.URL+"/v1/replica/promote", "")
	if err := sc.Append("r3", events[:1]); !errors.Is(err, ErrPeerPromoted) {
		t.Fatalf("append after promotion = %v, want ErrPeerPromoted", err)
	}
	_, err = sc.Status()
	must(err)

	log.note("router: add a shard group, partial listing")
	_, rts := newTestRouter(t, []ShardGroup{{Name: "g-a", Primary: ats.URL}}, RouterOptions{CheckInterval: time.Hour})
	raw(http.MethodGet, rts.URL+"/v1/fleet/shards", "")
	raw(http.MethodPost, rts.URL+"/v1/fleet/shards", "nope")
	raw(http.MethodPost, rts.URL+"/v1/fleet/shards", `{"name":"g-b","primary":"`+bts.URL+`"}`)
	raw(http.MethodPost, rts.URL+"/v1/fleet/shards", `{"name":"g-b","primary":"`+bts.URL+`"}`)
	_, pts := newTestRouter(t, []ShardGroup{{Name: "g-b", Primary: bts.URL}, {Name: "g-x", Primary: dead.URL}}, RouterOptions{CheckInterval: time.Hour})
	raw(http.MethodGet, pts.URL+"/v1/sessions", "")

	roles := map[string]string{
		ats.URL: "http://shard-a", bts.URL: "http://shard-b", sts.URL: "http://standby",
		rts.URL: "http://router", pts.URL: "http://router-2", dead.URL: "http://dead",
	}
	urls := make([]string, 0, len(roles))
	for u := range roles {
		urls = append(urls, u)
	}
	sort.Slice(urls, func(i, j int) bool { return len(urls[i]) > len(urls[j]) })
	got := log.buf.String()
	for _, u := range urls {
		got = strings.ReplaceAll(got, u, roles[u])
	}
	path := filepath.Join("testdata", "control_plane.golden.txt")
	if *updateWire {
		must(os.WriteFile(path, []byte(got), 0o644))
	}
	want, err := os.ReadFile(path)
	must(err)
	if got != string(want) {
		t.Errorf("control-plane transcript differs from %s:\n%s", path, got)
	}
}
