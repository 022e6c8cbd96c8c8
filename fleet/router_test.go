package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"debruijnring/obs"
	"debruijnring/session"
)

// newTestShard assembles an in-process shard behind an httptest server.
func newTestShard(t *testing.T, replicateTo string, standby bool) (*Shard, *httptest.Server) {
	t.Helper()
	shard, err := NewShard(ShardConfig{
		JournalDir:  t.TempDir(),
		ReplicateTo: replicateTo,
		Standby:     standby,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(shard.Handler())
	t.Cleanup(func() {
		ts.Close()
		shard.Close()
	})
	return shard, ts
}

func newTestRouter(t *testing.T, groups []ShardGroup, opts RouterOptions) (*Router, *httptest.Server) {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	rt, err := NewRouter(groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return rt, ts
}

// TestRouterRoutesByName checks the core contract: every session
// operation lands on the shard the consistent hash names, listings
// merge the whole fleet, and deletion reaches the owner.
func TestRouterRoutesByName(t *testing.T) {
	shards := make(map[string]*Shard, 3)
	groups := make([]ShardGroup, 0, 3)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("g%d", i)
		shard, ts := newTestShard(t, "", false)
		shards[name] = shard
		groups = append(groups, ShardGroup{Name: name, Primary: ts.URL})
	}
	rt, rts := newTestRouter(t, groups, RouterOptions{CheckInterval: time.Hour})

	ctx := context.Background()
	c := &session.Client{Base: rts.URL}
	var names []string
	for i := 0; i < 24; i++ {
		names = append(names, fmt.Sprintf("route-%02d", i))
	}
	owners := map[string]int{}
	for _, name := range names {
		if _, err := c.Create(ctx, session.CreateRequest{Name: name, Topology: "debruijn(2,6)"}); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		owner := rt.Lookup(name).Name
		owners[owner]++
		if _, ok := shards[owner].Sessions.Get(name); !ok {
			t.Fatalf("session %s missing on its hash owner %s", name, owner)
		}
		for g, shard := range shards {
			if _, ok := shard.Sessions.Get(name); ok != (g == owner) {
				t.Fatalf("session %s presence on %s = %v, owner is %s", name, g, ok, owner)
			}
		}
	}
	if len(owners) < 2 {
		t.Fatalf("24 sessions all landed on one shard: %v", owners)
	}

	// State and faults flow through the router to the owner.
	st, err := c.State(ctx, names[0])
	if err != nil || st.Name != names[0] {
		t.Fatalf("state through router = %+v, %v", st, err)
	}
	if _, err := c.AddFaults(ctx, names[0], session.FaultsRequest{NodeFaults: []string{st.Ring[3]}}); err != nil {
		t.Fatalf("faults through router: %v", err)
	}

	// The listing merges every shard, sorted.
	list, err := c.List(ctx)
	if err != nil || len(list) != len(names) {
		t.Fatalf("list = %d sessions, %v", len(list), err)
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].Name >= list[i].Name {
			t.Fatalf("merged listing unsorted at %d: %s >= %s", i, list[i-1].Name, list[i].Name)
		}
	}

	// Deletion reaches the owner.
	if err := c.Delete(ctx, names[1]); err != nil {
		t.Fatal(err)
	}
	if _, ok := shards[rt.Lookup(names[1]).Name].Sessions.Get(names[1]); ok {
		t.Error("deleted session still live on its shard")
	}

	// Stateless endpoints answer round-robin from any shard.
	resp, err := http.Get(rts.URL + "/v1/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats through router: %v (%v)", err, resp)
	}
	resp.Body.Close()

	// Fleet status reports every group serving its primary.
	var status []GroupStatus
	resp, err = http.Get(rts.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(status) != 3 {
		t.Fatalf("fleet status = %+v", status)
	}
	for _, gs := range status {
		if gs.Promoted || gs.Down || gs.Active != gs.Primary {
			t.Errorf("group %s unexpectedly degraded: %+v", gs.Name, gs)
		}
	}
}

// TestRouterWatchSSEProxy checks the streaming path survives the proxy:
// SSE frames flush through unbuffered while the upstream holds the
// connection open.
func TestRouterWatchSSEProxy(t *testing.T) {
	shard, ts := newTestShard(t, "", false)
	_, rts := newTestRouter(t, []ShardGroup{{Name: "g0", Primary: ts.URL}},
		RouterOptions{CheckInterval: time.Hour})

	ctx := context.Background()
	c := &session.Client{Base: rts.URL}
	if _, err := c.Create(ctx, session.CreateRequest{Name: "sse", Topology: "debruijn(2,6)"}); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodGet, rts.URL+"/v1/sessions/sse/watch", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type through proxy = %q", ct)
	}

	go func() {
		time.Sleep(20 * time.Millisecond)
		s, _ := shard.Sessions.Get("sse")
		ring := s.Ring()
		c.AddFaults(ctx, "sse", session.FaultsRequest{NodeFaults: []string{s.Network().Label(ring[3])}})
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
			t.Fatalf("timed out waiting for proxied SSE frames; got %v", kinds)
		}
	}
	if kinds[0] != "embed" || kinds[1] != "fault" {
		t.Errorf("proxied SSE kinds = %v, want [embed fault]", kinds)
	}
}

// TestRouterPromotesDeadPrimary runs an in-process failover: a primary
// replicating to a standby dies, the health loop promotes the standby,
// and the session comes back through the router with an identical ring
// hash.  (The cross-process SIGKILL variant lives in failover_test.go.)
func TestRouterPromotesDeadPrimary(t *testing.T) {
	replica, replicaTS := newTestShard(t, "", true)
	primary, primaryTS := newTestShard(t, replicaTS.URL, false)
	_ = primary
	rt, rts := newTestRouter(t,
		[]ShardGroup{{Name: "g0", Primary: primaryTS.URL, Replica: replicaTS.URL}},
		RouterOptions{CheckInterval: 50 * time.Millisecond, FailAfter: 2})

	ctx := context.Background()
	c := &session.Client{Base: rts.URL}
	st, err := c.Create(ctx, session.CreateRequest{Name: "fo", Topology: "debruijn(2,6)"})
	if err != nil {
		t.Fatal(err)
	}
	var acked session.StateJSON
	for i := 0; i < 3; i++ {
		res, err := c.AddFaults(ctx, "fo", session.FaultsRequest{NodeFaults: []string{st.Ring[2*i+1]}})
		if err != nil {
			t.Fatalf("fault %d: %v", i, err)
		}
		acked = res.State
	}

	primaryTS.CloseClientConnections()
	primaryTS.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if rt.Status()[0].Promoted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router never promoted the replica")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !replica.Replica.Promoted() {
		t.Fatal("replica shard not marked promoted")
	}
	gs := rt.Status()[0]
	counters := rt.Metrics().Snapshot().Counters
	if got := counters[obs.Key("fleet_router_promotions_total", "group", "g0")]; got != 1 || got != int64(gs.Promotions) {
		t.Errorf("fleet_router_promotions_total = %d, GroupStatus.Promotions = %d, want both 1", got, gs.Promotions)
	}
	if got := counters[obs.Key("fleet_router_requests_total", "group", "g0")]; got != gs.Requests {
		t.Errorf("fleet_router_requests_total = %d, GroupStatus.Requests = %d", got, gs.Requests)
	}

	got, err := c.State(ctx, "fo")
	if err != nil {
		t.Fatalf("state after failover: %v", err)
	}
	if got.RingHash != acked.RingHash || got.Seq != acked.Seq {
		t.Fatalf("restored session hash/seq = %s/%d, acked %s/%d",
			got.RingHash, got.Seq, acked.RingHash, acked.Seq)
	}
	// The promoted shard keeps absorbing events.
	if _, err := c.AddFaults(ctx, "fo", session.FaultsRequest{NodeFaults: []string{st.Ring[9]}}); err != nil {
		t.Fatalf("fault after failover: %v", err)
	}
}

// TestRouterCreateValidation pins the router's own 4xx paths.
func TestRouterCreateValidation(t *testing.T) {
	_, ts := newTestShard(t, "", false)
	_, rts := newTestRouter(t, []ShardGroup{{Name: "g0", Primary: ts.URL}},
		RouterOptions{CheckInterval: time.Hour})

	resp, err := http.Post(rts.URL+"/v1/sessions", "application/json", strings.NewReader(`{"topology":"debruijn(2,6)"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("nameless create through router = HTTP %d, want 400", resp.StatusCode)
	}
}

// TestRouterProxiesLargeBodiesConcurrently drives state bodies several
// pool buffers long (B(2,13): 8192 labels, ~130 KiB) through the router
// from concurrent goroutines: every proxied body must byte-equal the
// owning shard's direct answer, so no two requests share a copy buffer.
func TestRouterProxiesLargeBodiesConcurrently(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { proxyBufPool.Put(proxyBufPool.Get()) }); n != 0 {
		t.Fatalf("proxy buffer Get/Put made %v allocations, want 0", n)
	}
	groups := make([]ShardGroup, 0, 2)
	for i := range 2 {
		_, ts := newTestShard(t, "", false)
		groups = append(groups, ShardGroup{Name: fmt.Sprintf("g%d", i), Primary: ts.URL})
	}
	rt, rts := newTestRouter(t, groups, RouterOptions{CheckInterval: time.Hour})
	ctx := context.Background()
	c := &session.Client{Base: rts.URL}
	get := func(base, name string) ([]byte, error) {
		resp, err := http.Get(base + "/v1/sessions/" + name)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: HTTP %d", name, resp.StatusCode)
		}
		return body, err
	}
	direct := map[string][]byte{}
	for i := range 4 {
		name := fmt.Sprintf("big-%d", i)
		if _, err := c.Create(ctx, session.CreateRequest{Name: name, Topology: "debruijn(2,13)"}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddFaults(ctx, name, session.FaultsRequest{NodeFaults: []string{fmt.Sprintf("%013b", 100+977*i)}}); err != nil {
			t.Fatal(err)
		}
		body, err := get(rt.Lookup(name).Primary, name)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) <= 3*proxyBufSize {
			t.Fatalf("state body of %s is %d bytes, want more than three proxy buffers", name, len(body))
		}
		direct[name] = body
	}
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 6 {
				name := fmt.Sprintf("big-%d", (w+i)%4)
				body, err := get(rts.URL, name)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(body, direct[name]) {
					t.Errorf("worker %d: proxied body of %s (%d bytes) differs from the shard's (%d bytes)", w, name, len(body), len(direct[name]))
					return
				}
			}
		}()
	}
	wg.Wait()
}
