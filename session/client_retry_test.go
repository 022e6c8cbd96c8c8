package session

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"debruijnring/obs"
)

// TestClientRetriesGatewayErrors checks the failover-riding behavior: a
// request answered 503 (a router mid-promotion) is retried until the
// backend recovers, and the caller sees success, not the transient.
func TestClientRetriesGatewayErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"shard mid-promotion"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`[]`))
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL, RetryBase: time.Millisecond, RetryCap: 5 * time.Millisecond, Metrics: obs.NewRegistry()}
	list, err := c.List(context.Background())
	if err != nil {
		t.Fatalf("List through flapping server: %v", err)
	}
	if list == nil || calls.Load() != 3 {
		t.Errorf("list = %v after %d calls, want success on call 3", list, calls.Load())
	}
	if got := retryCounts(c.Metrics); got != [3]int64{2, 0, 0} {
		t.Errorf("transient/drain/torn retries = %v, want [2 0 0]", got)
	}
}

// retryCounts reads session_client_retries_total by kind: transient,
// drain, torn.
func retryCounts(reg *obs.Registry) [3]int64 {
	var out [3]int64
	for i, kind := range []string{"transient", "drain", "torn"} {
		out[i] = reg.Counter("session_client_retries_total", "kind", kind).Value()
	}
	return out
}

// TestClientDoesNotRetryClientErrors: a 4xx is the server's decision,
// not a transient — exactly one attempt.
func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"no such session"}`, http.StatusNotFound)
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL, RetryBase: time.Millisecond}
	if _, err := c.State(context.Background(), "nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("State = %v, want 404 error", err)
	}
	if calls.Load() != 1 {
		t.Errorf("4xx retried: %d attempts", calls.Load())
	}
}

// TestClientRetryExhaustion: a persistently dead backend fails after
// exactly MaxAttempts tries with the last transport error.
func TestClientRetryExhaustion(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusBadGateway)
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL, MaxAttempts: 3, RetryBase: time.Millisecond, RetryCap: 2 * time.Millisecond}
	if _, err := c.List(context.Background()); err == nil || !strings.Contains(err.Error(), "502") {
		t.Fatalf("List = %v, want 502 error after exhaustion", err)
	}
	if calls.Load() != 3 {
		t.Errorf("%d attempts, want exactly MaxAttempts = 3", calls.Load())
	}
}

// TestClientCountsDrainRetriesSeparately: a 503 carrying the fleet's
// draining marker is retried like any gateway error, but is counted as
// a "drain" retry (as ErrDraining) rather than a "transient" one —
// rebalance choreography is not a fault.
func TestClientCountsDrainRetriesSeparately(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("X-Fleet-Draining", "1")
			http.Error(w, `{"error":"session draining"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"name":"drained"}`))
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL, RetryBase: time.Millisecond, RetryCap: 5 * time.Millisecond, Metrics: obs.NewRegistry()}
	st, err := c.State(context.Background(), "drained")
	if err != nil || st.Name != "drained" {
		t.Fatalf("State through draining window = %+v, %v", st, err)
	}
	if got := retryCounts(c.Metrics); got != [3]int64{0, 2, 0} {
		t.Errorf("transient/drain/torn retries = %v, want [0 2 0]", got)
	}
}

// TestClientRetriesTornGetResponse: a response body cut mid-decode (the
// old owner dropping connections as a rebalance flips routing) is
// retried for idempotent GETs and surfaced immediately for mutations.
func TestClientRetriesTornGetResponse(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if calls.Add(1) == 1 {
			w.Write([]byte(`{"name":"torn`)) // truncated JSON
			return
		}
		w.Write([]byte(`{"name":"torn"}`))
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL, RetryBase: time.Millisecond, RetryCap: 5 * time.Millisecond, Metrics: obs.NewRegistry()}
	st, err := c.State(context.Background(), "torn")
	if err != nil || st.Name != "torn" || calls.Load() != 2 {
		t.Fatalf("State through torn response = %+v, %v after %d calls", st, err, calls.Load())
	}
	if got := retryCounts(c.Metrics); got != [3]int64{0, 0, 1} {
		t.Errorf("transient/drain/torn retries = %v, want [0 0 1]", got)
	}

	// The same tear on a mutation is not retried: the server may have
	// applied the batch, and the caller must decide.
	calls.Store(0)
	mc := &Client{Base: ts.URL, RetryBase: time.Millisecond}
	if _, err := mc.AddFaults(context.Background(), "torn", FaultsRequest{}); err == nil {
		t.Fatal("torn mutation response decoded cleanly")
	}
	if calls.Load() != 1 {
		t.Errorf("torn mutation retried: %d attempts", calls.Load())
	}
}

// TestClientRetryRespectsContext: cancellation ends the retry loop
// during backoff instead of sleeping it out.
func TestClientRetryRespectsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	c := &Client{Base: ts.URL, MaxAttempts: 50, RetryBase: 20 * time.Millisecond, RetryCap: time.Hour}
	start := time.Now()
	_, err := c.List(ctx)
	if err == nil {
		t.Fatal("List succeeded against a dead backend")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("retry loop outlived its context by %s", elapsed)
	}
}
