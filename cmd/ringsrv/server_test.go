package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"debruijnring/fleet"
	"debruijnring/obs"
	"debruijnring/session"
)

func newTestServer(t *testing.T, enablePprof bool) *httptest.Server {
	t.Helper()
	shard, err := fleet.NewShard(fleet.ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(shard, enablePprof))
	t.Cleanup(func() {
		ts.Close()
		shard.Close()
	})
	return ts
}

// TestSessionEndpointsMounted drives one session through the mounted
// /v1/sessions surface and checks the repair counters reach /v1/stats.
func TestSessionEndpointsMounted(t *testing.T) {
	ts := newTestServer(t, false)
	c := &session.Client{Base: ts.URL}
	ctx := context.Background()
	st, err := c.Create(ctx, session.CreateRequest{Name: "s", Topology: "debruijn(2,6)"})
	if err != nil {
		t.Fatal(err)
	}
	if st.RingLength != 64 {
		t.Errorf("created ring length %d", st.RingLength)
	}
	res, err := c.AddFaults(ctx, "s", session.FaultsRequest{NodeFaults: []string{st.Ring[5]}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Event.Repair != "local" && res.Event.Repair != "reembed" {
		t.Errorf("repair kind %q", res.Event.Repair)
	}

	var stats fleet.Stats
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Sessions.LocalRepairs+stats.Sessions.Reembeds != 1 {
		t.Errorf("session stats did not reach /v1/stats: %+v", stats.Sessions)
	}
}

func postJSON(t *testing.T, url, body string, dst any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

func TestEmbedEndpointAndCache(t *testing.T) {
	ts := newTestServer(t, false)
	var out embedResponse
	code := postJSON(t, ts.URL+"/v1/embed",
		`{"topology":"debruijn(3,3)","node_faults":["020","112"]}`, &out)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(out.Ring) != 21 || out.Stats.RingLength != 21 || out.Stats.LowerBound != 21 {
		t.Errorf("response = %+v", out.Stats)
	}
	if out.Stats.CacheHit {
		t.Error("first request hit the cache")
	}
	for _, label := range out.Ring {
		if label == "020" || label == "112" {
			t.Error("ring contains a faulty processor")
		}
	}
	// Same faults, reversed order: served from cache.
	code = postJSON(t, ts.URL+"/v1/embed",
		`{"topology":"debruijn(3,3)","node_faults":["112","020"]}`, &out)
	if code != http.StatusOK || !out.Stats.CacheHit {
		t.Errorf("repeat: status %d, cache hit %v", code, out.Stats.CacheHit)
	}

	var stats fleet.Stats
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 1 || stats.Misses != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Requests != 2 || stats.HitRate != 0.5 {
		t.Errorf("stats = %+v, want 2 requests at hit rate 0.5", stats)
	}
	if stats.LatencySamples != 2 || stats.LatencyP50Ns <= 0 {
		t.Errorf("latency stats missing: %+v", stats)
	}
}

func TestEmbedEndpointEdgeFaultsAndErrors(t *testing.T) {
	ts := newTestServer(t, false)
	var out embedResponse
	code := postJSON(t, ts.URL+"/v1/embed",
		`{"topology":"butterfly(3,2)","edge_faults":[{"from":"(0,00)","to":"(1,00)"}]}`, &out)
	if code != http.StatusOK || out.Stats.RingLength != 18 {
		t.Errorf("butterfly embed: status %d, stats %+v", code, out.Stats)
	}
	// Unsupported fault class → 422 with an error payload.
	var em map[string]string
	code = postJSON(t, ts.URL+"/v1/embed",
		`{"topology":"butterfly(3,2)","node_faults":["(0,00)"]}`, &em)
	if code != http.StatusUnprocessableEntity || em["error"] == "" {
		t.Errorf("status %d, body %v", code, em)
	}
	// Bad topology and bad label → 400.
	if code := postJSON(t, ts.URL+"/v1/embed", `{"topology":"tube(9)"}`, nil); code != http.StatusBadRequest {
		t.Errorf("bad topology: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/embed",
		`{"topology":"debruijn(3,3)","node_faults":["999"]}`, nil); code != http.StatusBadRequest {
		t.Errorf("bad label: status %d", code)
	}
	// Unknown fields and broken JSON → 400.
	if code := postJSON(t, ts.URL+"/v1/embed", `{"topolgy":"debruijn(3,3)"}`, nil); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/embed", `{`, nil); code != http.StatusBadRequest {
		t.Errorf("broken JSON: status %d", code)
	}
}

func TestVerifyEndpoint(t *testing.T) {
	ts := newTestServer(t, false)
	var emb embedResponse
	postJSON(t, ts.URL+"/v1/embed", `{"topology":"debruijn(3,3)","node_faults":["020"]}`, &emb)

	body, _ := json.Marshal(map[string]any{
		"topology":    "debruijn(3,3)",
		"node_faults": []string{"020"},
		"ring":        emb.Ring,
	})
	var ver verifyResponse
	if code := postJSON(t, ts.URL+"/v1/verify", string(body), &ver); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !ver.Valid {
		t.Error("embedded ring did not verify")
	}
	// The same ring against a fault it traverses is invalid.
	body, _ = json.Marshal(map[string]any{
		"topology":    "debruijn(3,3)",
		"node_faults": []string{emb.Ring[0]},
		"ring":        emb.Ring,
	})
	postJSON(t, ts.URL+"/v1/verify", string(body), &ver)
	if ver.Valid {
		t.Error("ring through faulty processor verified")
	}
	// A fault-free full embedding is Hamiltonian.
	postJSON(t, ts.URL+"/v1/embed", `{"topology":"debruijn(3,3)"}`, &emb)
	body, _ = json.Marshal(map[string]any{"topology": "debruijn(3,3)", "ring": emb.Ring})
	postJSON(t, ts.URL+"/v1/verify", string(body), &ver)
	if !ver.Valid || !ver.Hamiltonian {
		t.Errorf("full ring: %+v", ver)
	}
}

func TestDisjointCyclesEndpoint(t *testing.T) {
	ts := newTestServer(t, false)
	var out disjointCyclesResponse
	code := postJSON(t, ts.URL+"/v1/disjoint-cycles",
		`{"topology":"debruijn(4,2)","max_cycles":2}`, &out)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.Count != 3 || out.Length != 16 || len(out.Cycles) != 2 {
		t.Errorf("response = count %d, length %d, %d cycles", out.Count, out.Length, len(out.Cycles))
	}
	// Shuffle-exchange carries no Hamiltonian family → 422.
	if code := postJSON(t, ts.URL+"/v1/disjoint-cycles",
		`{"topology":"shuffleexchange(3,3)"}`, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("SE: status %d", code)
	}
}

func TestBroadcastEndpoint(t *testing.T) {
	ts := newTestServer(t, false)
	var single, multi broadcastResponse
	if code := postJSON(t, ts.URL+"/v1/broadcast",
		`{"topology":"debruijn(4,2)","message_size":12,"rings":1}`, &single); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/broadcast",
		`{"topology":"debruijn(4,2)","message_size":12}`, &multi); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if multi.Rings != 3 || multi.TimeUnits*3 != single.TimeUnits {
		t.Errorf("expected 3× speedup: single %+v, multi %+v", single, multi)
	}
}

// TestMetricsEndpoints checks the exposition surface: /metrics serves
// Prometheus text with the engine families, /v1/metrics the JSON
// snapshot, and /debug/pprof/ is absent unless opted in.
func TestMetricsEndpoints(t *testing.T) {
	ts := newTestServer(t, false)
	postJSON(t, ts.URL+"/v1/embed", `{"topology":"debruijn(3,3)","node_faults":["020"]}`, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE engine_request_ns histogram",
		"engine_request_ns_count 1",
		"engine_cache_misses_total 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics is missing %q", want)
		}
	}

	var snap obs.Snapshot
	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Histograms["engine_request_ns"].Count != 1 {
		t.Errorf("snapshot engine_request_ns count = %d, want 1", snap.Histograms["engine_request_ns"].Count)
	}

	// pprof is opt-in: absent on the default server, mounted with the flag.
	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/pprof/ without -pprof: status %d, want 404", resp.StatusCode)
	}
	pts := newTestServer(t, true)
	resp, err = http.Get(pts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ with -pprof: status %d, want 200", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, false)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}
