package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock is the load generator's time source; tests substitute a fake.
type clock interface {
	now() time.Duration // since the clock's start
	sleepUntil(t time.Duration)
}

type realClock struct{ start time.Time }

func (c realClock) now() time.Duration { return time.Since(c.start) }

func (c realClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// job is one operation of a workload.  run is the timed part; check,
// when set, is the untimed oracle over what run returned.
type job struct {
	kind  string // "event", "read" or "embed"
	key   int    // ops with one key run in order (open loop: same sender)
	run   func() error
	check func() error
}

// opRec is the timing of one completed op.  In the open loop due is when
// the schedule wanted the op sent; in a closed loop it equals sent.
type opRec struct {
	kind            string
	due, sent, done time.Duration
	failed          bool
}

// latency is measured from the due time, so a stall also charges the
// ops that queued behind it.
func (o opRec) latency() time.Duration { return o.done - o.due }

// late is how far behind its schedule the generator sent the op.
func (o opRec) late() time.Duration { return o.sent - o.due }

// errLog keeps the first few failure messages of a run.
type errLog struct {
	mu   sync.Mutex
	msgs []string
	n    int
}

func (l *errLog) add(kind string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	if len(l.msgs) < 20 {
		l.msgs = append(l.msgs, kind+": "+err.Error())
	}
}

// execute runs one job: the timed part, then the untimed check.  It
// returns the record and how long the check took.
func execute(clk clock, j job, due time.Duration, errs *errLog) (opRec, time.Duration) {
	rec := opRec{kind: j.kind, due: due, sent: clk.now()}
	err := j.run()
	rec.done = clk.now()
	if err != nil {
		rec.failed = true
		errs.add(j.kind, err)
		return rec, 0
	}
	if j.check != nil {
		if err := j.check(); err != nil {
			rec.failed = true
			errs.add(j.kind+" oracle", err)
		}
	}
	return rec, clk.now() - rec.done
}

// openLoop sends n ops on a fixed schedule — op i is due at
// from + i×interval whether or not earlier ops have completed — through
// a fixed set of senders.  An op goes to the sender its key selects, so
// ops on one key keep their order.
type openLoop struct {
	clk      clock
	interval time.Duration
	senders  int
}

// run returns every op's record and the largest number of ops
// outstanding (sent or queued, not completed) at any dispatch.
func (l openLoop) run(from time.Duration, n int, gen func(i int) job, errs *errLog) (recs []opRec, backlogMax int) {
	type item struct {
		j   job
		due time.Duration
	}
	queues := make([]chan item, l.senders)
	out := make([][]opRec, l.senders)
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	for s := range queues {
		// Sized to every op the run can dispatch, so the schedule never
		// blocks on a slow sender.
		queues[s] = make(chan item, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queues[s] {
				rec, _ := execute(l.clk, it.j, it.due, errs)
				out[s] = append(out[s], rec)
				outstanding.Add(-1)
			}
		}()
	}
	for i := 0; i < n; i++ {
		due := from + time.Duration(i)*l.interval
		l.clk.sleepUntil(due)
		j := gen(i)
		if b := int(outstanding.Add(1)); b > backlogMax {
			backlogMax = b
		}
		queues[j.key%l.senders] <- item{j, due}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	for _, o := range out {
		recs = append(recs, o...)
	}
	return recs, backlogMax
}

// closedLoop runs clients callers, each issuing its next op as soon as
// the previous one (and its check) completes, until the clock passes
// until.  It returns every record and the clients' mean time spent in
// untimed checks, which the throughput excludes.
func closedLoop(clk clock, clients int, until time.Duration, gen func(client, i int) job, errs *errLog) (recs []opRec, checkMean time.Duration) {
	out := make([][]opRec, clients)
	checks := make([]time.Duration, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; clk.now() < until; i++ {
				rec, chk := execute(clk, gen(c, i), clk.now(), errs)
				out[c] = append(out[c], rec)
				checks[c] += chk
			}
		}()
	}
	wg.Wait()
	var total time.Duration
	for c := range out {
		recs = append(recs, out[c]...)
		total += checks[c]
	}
	return recs, total / time.Duration(clients)
}
