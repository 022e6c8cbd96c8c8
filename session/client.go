package session

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"debruijnring/obs"
)

// ErrDraining marks a 503 carrying the fleet's draining marker: the
// session is mid-handoff in a rebalance, and the retry that follows is
// expected choreography, not a failure.  The client counts these
// retries as session_client_retries_total{kind="drain"} in Metrics.
var ErrDraining = errors.New("session: draining (fleet rebalance in progress)")

// ErrTorn marks a response whose body was cut off mid-decode (e.g. the
// old owner dropping connections as a drain flips routing).  Idempotent
// GETs wrap their decode error in it and retry; the client counts these
// retries as session_client_retries_total{kind="torn"} in Metrics.
var ErrTorn = errors.New("session: torn response")

// Client talks to the /v1/sessions API of a ringsrv instance or a
// ringfleet router — the programmatic counterpart of the HTTP handler,
// used by the chaos CLI and integration tests.
//
// Requests that fail on the transport (connection refused, reset) or
// with a gateway status (502/503/504 — what the fleet router answers
// while a shard is down or mid-promotion) are retried with jittered
// exponential backoff, so a client riding through a shard restart or a
// replica promotion sees latency, not errors.  Fault and heal batches
// are safe to retry: re-applying a batch the server already absorbed is
// a journaled noop.  Application-level errors (4xx, 422 rejections) are
// never retried.
type Client struct {
	// Base is the server root, e.g. "http://localhost:8080".
	Base string
	// HTTP is the underlying client; nil uses http.DefaultClient.
	HTTP *http.Client
	// MaxAttempts caps the total tries per request, retries included
	// (default 5; 1 disables retrying).
	MaxAttempts int
	// RetryBase is the first backoff delay, doubled per retry with
	// ±50% jitter (default 50ms).
	RetryBase time.Duration
	// RetryCap bounds one backoff delay (default 1s).
	RetryCap time.Duration

	// Metrics, when set, counts retried attempts, cumulative over the
	// client's lifetime, as session_client_retries_total{kind}: "drain"
	// for a fleet rebalance draining the session (ErrDraining), which
	// is expected choreography rather than a fault; "torn" for
	// idempotent GETs replayed after a response died mid-body
	// (ErrTorn); "transient" for every other transport error and
	// gateway status.  nil counts nothing.
	Metrics *obs.Registry
}

// countRetry counts one retried attempt by kind in Metrics.
func (c *Client) countRetry(err error) {
	if c.Metrics == nil {
		return
	}
	kind := "transient"
	switch {
	case errors.Is(err, ErrDraining):
		kind = "drain"
	case errors.Is(err, ErrTorn):
		kind = "torn"
	}
	c.Metrics.Counter("session_client_retries_total", "kind", kind).Inc()
}

// defaultHTTP backs clients that don't bring their own http.Client.
// DefaultTransport keeps only 2 idle connections per host — a fleet
// client running dozens of concurrent session streams against one
// router would churn connections on every request — so the default
// client carries a deep keep-alive pool instead.
var defaultHTTP = &http.Client{Transport: func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 128
	return t
}()}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTP
}

func (c *Client) retryPolicy() (attempts int, base, maxDelay time.Duration) {
	attempts, base, maxDelay = c.MaxAttempts, c.RetryBase, c.RetryCap
	if attempts <= 0 {
		attempts = 5
	}
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if maxDelay <= 0 {
		maxDelay = time.Second
	}
	return attempts, base, maxDelay
}

// retryStatus reports the gateway statuses worth retrying: the fleet
// router (and any fronting proxy) answers them while the owning shard
// is unreachable or a replica promotion is in flight.
func retryStatus(code int) bool {
	return code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// do issues one request with retries; body is re-marshaled once and
// replayed on every attempt.
func (c *Client) do(ctx context.Context, method, path string, body, dst any) error {
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return err
		}
	}
	attempts, base, maxDelay := c.retryPolicy()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := sleepBackoff(ctx, attempt, base, maxDelay); err != nil {
				return lastErr
			}
		}
		retryable, err := c.doOnce(ctx, method, path, buf, dst)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || !retryable {
			return err
		}
		c.countRetry(err)
		lastErr = err
	}
	return lastErr
}

// sleepBackoff waits out one jittered exponential backoff step or the
// context, whichever ends first.
func sleepBackoff(ctx context.Context, attempt int, base, maxDelay time.Duration) error {
	d := base << (attempt - 1)
	if d > maxDelay || d <= 0 {
		d = maxDelay
	}
	// ±50% jitter decorrelates clients retrying into a recovering shard.
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// doOnce issues a single attempt.  retryable classifies the failure:
// transport errors and gateway statuses are worth retrying, anything
// the server actually decided (4xx/422) is not.
func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, dst any) (retryable bool, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		// Transport-level failure: nothing reached the server, or the
		// connection died — retry unless the context was cancelled.
		return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded), err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		// A fleet rebalance drains moved sessions with 503 plus this
		// marker; surface the typed error so callers can tell drain
		// choreography from real failures.
		draining := resp.Header.Get("X-Fleet-Draining") != ""
		var e struct {
			Error string `json:"error"`
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			err := fmt.Errorf("%s %s: %s (HTTP %d)", method, path, e.Error, resp.StatusCode)
			if draining {
				err = fmt.Errorf("%w: %v", ErrDraining, err)
			}
			return retryStatus(resp.StatusCode), err
		}
		// Rejected fault batches return 422 with a full FaultsResponse;
		// decode it so callers see the journaled rejection event.
		if dst != nil {
			json.Unmarshal(data, dst)
		}
		err := fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
		if draining {
			err = fmt.Errorf("%w: %v", ErrDraining, err)
		}
		return retryStatus(resp.StatusCode), err
	}
	if dst == nil || resp.StatusCode == http.StatusNoContent {
		return false, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		// A connection reset mid-body surfaces here rather than in Do.
		// GETs are idempotent, so a torn response is retried (wrapped in
		// ErrTorn so the retry is counted as such); mutations are not,
		// since the server may have applied them.
		if method == http.MethodGet {
			return true, fmt.Errorf("%w: %v", ErrTorn, err)
		}
		return false, err
	}
	return false, nil
}

// Create starts a session on the server.
func (c *Client) Create(ctx context.Context, req CreateRequest) (*StateJSON, error) {
	var st StateJSON
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// State fetches a session's current state (ring included).
func (c *Client) State(ctx context.Context, name string) (*StateJSON, error) {
	var st StateJSON
	if err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(name), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// List fetches the session summaries.
func (c *Client) List(ctx context.Context) ([]StateJSON, error) {
	var out []StateJSON
	if err := c.do(ctx, http.MethodGet, "/v1/sessions", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// AddFaults streams one fault batch into the session.  The returned
// event's Repair field names the repair-ladder rung that served the
// batch ("local", "splice", "reembed", "noop" or "rejected").  A
// rejected batch (the server kept its last good ring) returns the
// journaled rejection event alongside the error.
func (c *Client) AddFaults(ctx context.Context, name string, req FaultsRequest) (*FaultsResponse, error) {
	return c.applyFaults(ctx, http.MethodPost, name, req)
}

// RemoveFaults streams one heal batch into the session — the DELETE
// counterpart of AddFaults, re-admitting repaired components.  Rejected
// batches behave as in AddFaults.
func (c *Client) RemoveFaults(ctx context.Context, name string, req FaultsRequest) (*FaultsResponse, error) {
	return c.applyFaults(ctx, http.MethodDelete, name, req)
}

func (c *Client) applyFaults(ctx context.Context, method, name string, req FaultsRequest) (*FaultsResponse, error) {
	var out FaultsResponse
	err := c.do(ctx, method, "/v1/sessions/"+url.PathEscape(name)+"/faults", req, &out)
	if err != nil {
		if out.Event.Kind != "" {
			return &out, err
		}
		return nil, err
	}
	return &out, nil
}

// Trace fetches the session's repair trace records, one per recent live
// fault/heal event (limit <= 0 returns all of them, at most 128).
func (c *Client) Trace(ctx context.Context, name string, limit int) (*TraceResponse, error) {
	path := "/v1/sessions/" + url.PathEscape(name) + "/trace"
	if limit > 0 {
		path += "?limit=" + strconv.Itoa(limit)
	}
	var out TraceResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Watch long-polls for events after the given sequence number.
func (c *Client) Watch(ctx context.Context, name string, after uint64, wait time.Duration) (*WatchResponse, error) {
	path := "/v1/sessions/" + url.PathEscape(name) + "/watch?after=" +
		strconv.FormatUint(after, 10) + "&wait=" + url.QueryEscape(wait.String())
	var out WatchResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Delete removes the session (journal included).
func (c *Client) Delete(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+url.PathEscape(name), nil, nil)
}
