package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock moves only when the load generator sleeps to a due time or
// a job advances it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = max(c.t, t)
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
}

// TestOpenLoopTimesFromDue stalls the first of ten ops, due 1ms apart,
// for 10ms once all ten are dispatched.  The nine queued behind it are
// sent when it completes, at 19ms; their latency and lateness count from
// when each was due, not from when it was sent.
func TestOpenLoopTimesFromDue(t *testing.T) {
	clk := &fakeClock{}
	const n = 10
	dispatched := make(chan struct{})
	gen := func(i int) job {
		if i == n-1 {
			close(dispatched)
		}
		return job{kind: "event", run: func() error {
			if i == 0 {
				<-dispatched
				clk.advance(10 * time.Millisecond)
			}
			return nil
		}}
	}
	recs, backlog := openLoop{clk: clk, interval: time.Millisecond, senders: 1}.run(0, n, gen, &errLog{})
	if len(recs) != n || backlog != n {
		t.Fatalf("%d records, backlog %d; want %d and %d", len(recs), backlog, n, n)
	}
	if got := recs[0].latency(); got != 19*time.Millisecond {
		t.Errorf("stalled op latency %v, want 19ms", got)
	}
	for k := 1; k < n; k++ {
		r := recs[k]
		want := time.Duration(19-k) * time.Millisecond
		if r.due != time.Duration(k)*time.Millisecond || r.latency() != want || r.late() != want {
			t.Errorf("op %d: due %v latency %v late %v, want due %dms latency and late %v", k, r.due, r.latency(), r.late(), k, want)
		}
	}
}

// TestOpenLoopKeepsKeyOrder checks that ops sharing a key run in
// dispatch order.
func TestOpenLoopKeepsKeyOrder(t *testing.T) {
	clk := &fakeClock{}
	var mu sync.Mutex
	order := map[int][]int{}
	gen := func(i int) job {
		return job{key: i % 3, run: func() error {
			mu.Lock()
			order[i%3] = append(order[i%3], i)
			mu.Unlock()
			return nil
		}}
	}
	openLoop{clk: clk, interval: time.Millisecond, senders: 2}.run(0, 30, gen, &errLog{})
	for k, seq := range order {
		for j := 1; j < len(seq); j++ {
			if seq[j] < seq[j-1] {
				t.Fatalf("key %d ran %v out of order", k, seq)
			}
		}
	}
}
