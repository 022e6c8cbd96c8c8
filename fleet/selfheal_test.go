package fleet

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"debruijnring/obs"
	"debruijnring/session"
)

// waitGroupStatus polls the router's fleet status until the single
// group's row satisfies pred, failing the test on timeout.
func waitGroupStatus(t *testing.T, rt *Router, desc string, pred func(GroupStatus) bool) GroupStatus {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		status := rt.Status()
		if len(status) > 0 && pred(status[0]) {
			return status[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %q: %+v", desc, status)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestFleetDoubleFailure is the self-healing acceptance test: a group
// survives TWO primary losses.  After the first SIGKILL the router
// promotes the replica and re-replicates it to a spare standby; once
// the group reports full strength ("ok" replication to the spare) the
// promoted shard is SIGKILLed too and the spare is promoted in turn.
// Zero acknowledged events may be lost across either failure.
func TestFleetDoubleFailure(t *testing.T) {
	const sessionsN = 6

	replica := startShardProc(t, t.TempDir(), "", true)
	primary := startShardProc(t, t.TempDir(), replica.url, false)
	spare := startShardProc(t, t.TempDir(), "", true)

	rt, err := NewRouter(
		[]ShardGroup{{Name: "g0", Primary: primary.url, Replica: replica.url}},
		RouterOptions{
			CheckInterval: 50 * time.Millisecond,
			FailAfter:     2,
			Spares:        []string{spare.url},
			Logf:          t.Logf,
		})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt)
	defer rts.Close()

	ctx := context.Background()
	c := &session.Client{Base: rts.URL, MaxAttempts: 10, RetryBase: 50 * time.Millisecond, RetryCap: 500 * time.Millisecond}

	names := make([]string, sessionsN)
	rings := make(map[string][]string, sessionsN)
	acked := make(map[string]session.StateJSON, sessionsN)
	for i := range names {
		names[i] = fmt.Sprintf("dbl-%02d", i)
		st, err := c.Create(ctx, session.CreateRequest{Name: names[i], Topology: "debruijn(2,6)"})
		if err != nil {
			t.Fatalf("create %s: %v", names[i], err)
		}
		rings[names[i]] = st.Ring
		acked[names[i]] = *st
	}

	round := func(r int) {
		t.Helper()
		for _, name := range names {
			label := rings[name][2*r+1]
			res, err := c.AddFaults(ctx, name, session.FaultsRequest{NodeFaults: []string{label}})
			if err != nil {
				t.Fatalf("round %d: fault on %s: %v", r, name, err)
			}
			acked[name] = res.State
		}
	}
	verify := func(stage string) {
		t.Helper()
		for _, name := range names {
			got, err := c.State(ctx, name)
			if err != nil {
				t.Fatalf("state %s after %s: %v", name, stage, err)
			}
			want := acked[name]
			if got.Seq != want.Seq || got.RingHash != want.RingHash {
				t.Errorf("session %s after %s: seq/hash = %d/%s, acked %d/%s",
					name, stage, got.Seq, got.RingHash, want.Seq, want.RingHash)
			}
		}
	}

	round(0)
	round(1)

	// First failure: SIGKILL the primary mid-stream.  The replica holds
	// every acked event; the next round rides the client's retries
	// across the promotion.
	if err := primary.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primary.cmd.Wait()
	round(2)

	waitGroupStatus(t, rt, "first promotion", func(gs GroupStatus) bool {
		return gs.Promotions == 1 && gs.Active == replica.url
	})
	verify("first failover")

	// Self-healing: the router must re-target the survivor at the spare
	// and return the group to full strength — promoted flag cleared,
	// replication "ok" — before a second failure is survivable.
	full := waitGroupStatus(t, rt, "full strength after re-replication", func(gs GroupStatus) bool {
		return gs.Promotions == 1 && !gs.Promoted &&
			gs.Replica == spare.url && gs.ReplicaState == string(ReplicaOK)
	})
	if full.Primary != replica.url {
		t.Fatalf("after re-replication primary = %s, want the promoted survivor %s", full.Primary, replica.url)
	}

	round(3)
	round(4)

	// Second failure: SIGKILL the promoted survivor.  Everything acked —
	// including the pre-first-failure prefix the spare only ever saw via
	// the bootstrap re-stream — must come back from the spare.
	if err := replica.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	replica.cmd.Wait()
	round(5)

	waitGroupStatus(t, rt, "second promotion", func(gs GroupStatus) bool {
		return gs.Promotions == 2 && gs.Active == spare.url
	})
	verify("second failover")
}

// TestStalePrimaryFencesAndDemotes pins the split-brain half of the
// lifecycle: once its replica has been promoted behind its back, a
// primary's next replicated append fences the shard (503 on the session
// API), and the demotion that follows leaves it a clean standby — no
// live sessions, no journals, replica ingest accepted again.
func TestStalePrimaryFencesAndDemotes(t *testing.T) {
	standbyShard, standbyTS := newTestShard(t, "", true)
	primaryShard, primaryTS := newTestShard(t, standbyTS.URL, false)

	ctx := context.Background()
	c := &session.Client{Base: primaryTS.URL, MaxAttempts: 1}
	st, err := c.Create(ctx, session.CreateRequest{Name: "split", Topology: "debruijn(2,6)"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.AddFaults(ctx, "split", session.FaultsRequest{NodeFaults: []string{st.Ring[1]}})
	if err != nil {
		t.Fatal(err)
	}
	acked := res.State

	// Hold the demotion so the fenced window is observable.
	fenced := make(chan struct{})
	release := make(chan struct{})
	primaryShard.repl.OnFenced = func() {
		close(fenced)
		<-release
		primaryShard.demote()
	}

	// Promote the standby behind the primary's back (epoch 0: manual op).
	pr, err := (&ReplicaClient{Base: standbyTS.URL}).Promote(0)
	if err != nil {
		t.Fatalf("manual promote: %v", err)
	}
	if pr.Restored != 1 {
		t.Fatalf("promote restored %d sessions, want 1", pr.Restored)
	}

	// The stale primary's next replicated append trips the fence.
	c.AddFaults(ctx, "split", session.FaultsRequest{NodeFaults: []string{st.Ring[3]}})
	select {
	case <-fenced:
	case <-time.After(5 * time.Second):
		t.Fatal("stale primary never fenced after its replica was promoted")
	}
	if !primaryShard.repl.Fenced() {
		t.Fatal("store not in fenced state")
	}

	// While fenced, the session API answers 503 — the client's retry
	// rides over to the promoted shard via the router.
	if _, err := c.State(ctx, "split"); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("fenced shard answered a session read: %v", err)
	}

	// Let the demotion run: sessions closed, journals wiped, fence
	// lifted, process serving as a clean standby.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for primaryShard.demotions.Load() == 0 || primaryShard.repl.Fenced() {
		if time.Now().After(deadline) {
			t.Fatal("demotion never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if live := primaryShard.Sessions.List(); len(live) != 0 {
		t.Fatalf("%d sessions still live after demotion", len(live))
	}
	if names, err := primaryShard.local.Names(); err != nil || len(names) != 0 {
		t.Fatalf("journals after demotion = %v, %v; want none", names, err)
	}
	if list, err := c.List(ctx); err != nil || len(list) != 0 {
		t.Fatalf("demoted shard list = %v, %v; want empty 200", list, err)
	}

	// The promoted standby owns the session at exactly the last state it
	// acknowledged as a replica; the stale primary's post-promotion
	// append died with the wiped journals.
	cs := &session.Client{Base: standbyTS.URL, MaxAttempts: 1}
	got, err := cs.State(ctx, "split")
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != acked.Seq || got.RingHash != acked.RingHash {
		t.Fatalf("promoted state = %d/%s, want acked %d/%s", got.Seq, got.RingHash, acked.Seq, acked.RingHash)
	}

	// And the demoted ex-primary accepts replica ingest again — it can
	// serve as the promoted shard's new standby.
	evs, err := standbyShard.local.Load("split")
	if err != nil {
		t.Fatal(err)
	}
	if err := (&ReplicaClient{Base: primaryTS.URL}).Append("split", evs); err != nil {
		t.Fatalf("demoted shard refused replica ingest: %v", err)
	}
}

// TestFleetRebalanceMovesOnlyStolenKeyspace grows a two-group fleet to
// three at runtime under live write traffic.  Sessions in the moved
// keyspace ride the drain's 503-retry choreography (counted separately
// as DrainRetries, zero errors); sessions outside it must see no
// retries at all.  Journals land on the new owner hash-verified and are
// forgotten by the old ones.
func TestFleetRebalanceMovesOnlyStolenKeyspace(t *testing.T) {
	const sessionsN = 16

	shards := map[string]*Shard{}
	var groups []ShardGroup
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("g%d", i)
		shard, ts := newTestShard(t, "", false)
		shards[name] = shard
		groups = append(groups, ShardGroup{Name: name, Primary: ts.URL})
	}
	rt, rts := newTestRouter(t, groups, RouterOptions{CheckInterval: time.Hour})

	ctx := context.Background()
	setup := &session.Client{Base: rts.URL}
	names := make([]string, sessionsN)
	rings := make(map[string][]string, sessionsN)
	preSeq := make(map[string]uint64, sessionsN)
	oldOwner := make(map[string]string, sessionsN)
	for i := range names {
		names[i] = fmt.Sprintf("reb-%02d", i)
		st, err := setup.Create(ctx, session.CreateRequest{Name: names[i], Topology: "debruijn(2,6)"})
		if err != nil {
			t.Fatalf("create %s: %v", names[i], err)
		}
		rings[names[i]] = st.Ring
		preSeq[names[i]] = st.Seq
		oldOwner[names[i]] = rt.Lookup(names[i]).Name
	}

	// The shard that will join; not part of the fleet yet.
	newShard, newTS := newTestShard(t, "", false)

	// Live traffic: one client per session, re-applying its fault batch
	// (a journaled noop after the first application) throughout the
	// rebalance.  Per-client counters separate drain choreography from
	// real retries.
	clients := make(map[string]*session.Client, sessionsN)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var mu sync.Mutex
	writeErrs := map[string]error{}
	for _, name := range names {
		// Per-client registries: the retry assertions below read the
		// metrics surface, the same counters a fleet scrape serves.
		cl := &session.Client{Base: rts.URL, MaxAttempts: 12, RetryBase: 10 * time.Millisecond, RetryCap: 100 * time.Millisecond,
			Metrics: obs.NewRegistry()}
		clients[name] = cl
		label := rings[name][5]
		wg.Add(1)
		go func(name string, cl *session.Client) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.AddFaults(ctx, name, session.FaultsRequest{NodeFaults: []string{label}}); err != nil {
					mu.Lock()
					writeErrs[name] = err
					mu.Unlock()
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(name, cl)
	}
	time.Sleep(50 * time.Millisecond)

	// Grow the fleet through the HTTP membership endpoint.
	body := fmt.Sprintf(`{"name":"g2","primary":%q}`, newTS.URL)
	resp, err := http.Post(rts.URL+"/v1/fleet/shards", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/fleet/shards = HTTP %d", resp.StatusCode)
	}

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	for name, err := range writeErrs {
		t.Errorf("writer %s failed: %v", name, err)
	}

	var moved, stayed []string
	for _, name := range names {
		if rt.Lookup(name).Name == "g2" {
			moved = append(moved, name)
		} else {
			stayed = append(stayed, name)
		}
	}
	if len(moved) == 0 || len(stayed) == 0 {
		t.Fatalf("degenerate rebalance: %d moved, %d stayed", len(moved), len(stayed))
	}
	t.Logf("rebalance moved %d of %d sessions to g2", len(moved), sessionsN)

	// Moved sessions live on the new owner; the old owner holds neither
	// the live session nor the journal.
	for _, name := range moved {
		if _, ok := newShard.Sessions.Get(name); !ok {
			t.Errorf("moved session %s not live on the new shard", name)
		}
		old := shards[oldOwner[name]]
		if _, ok := old.Sessions.Get(name); ok {
			t.Errorf("moved session %s still live on old owner %s", name, oldOwner[name])
		}
		if _, err := old.local.Load(name); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("old owner %s still holds journal for %s (err=%v)", oldOwner[name], name, err)
		}
	}

	// Only the moved keyspace saw the drain; everything else rode
	// through with zero retries of any kind.
	for _, name := range stayed {
		snap := clients[name].Metrics.Snapshot()
		r := snap.Counters[obs.Key("session_client_retries_total", "kind", "transient")]
		d := snap.Counters[obs.Key("session_client_retries_total", "kind", "drain")]
		if r != 0 || d != 0 {
			t.Errorf("unmoved session %s saw retries=%d drain=%d, want 0/0", name, r, d)
		}
	}

	// Every session — moved or not — kept absorbing events: state is at
	// or past its pre-rebalance seq and still accepts a fresh batch.
	for _, name := range names {
		st, err := setup.State(ctx, name)
		if err != nil {
			t.Fatalf("state %s after rebalance: %v", name, err)
		}
		if st.Seq < preSeq[name] || st.RingHash == "" {
			t.Errorf("session %s went backwards: seq %d (pre %d), hash %q", name, st.Seq, preSeq[name], st.RingHash)
		}
		if _, err := setup.AddFaults(ctx, name, session.FaultsRequest{NodeFaults: []string{rings[name][7]}}); err != nil {
			t.Fatalf("post-rebalance fault on %s: %v", name, err)
		}
	}
	list, err := setup.List(ctx)
	if err != nil || len(list) != sessionsN {
		t.Fatalf("merged list after rebalance = %d sessions, %v", len(list), err)
	}
}

// flakyBackend fronts a shard handler with a toggleable outage.
type flakyBackend struct {
	inner http.Handler
	down  atomic.Bool
}

func (f *flakyBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		http.Error(w, `{"error":"replica unreachable"}`, http.StatusServiceUnavailable)
		return
	}
	f.inner.ServeHTTP(w, r)
}

// TestReplicationCatchupReconnect pins satellite (a): a replica outage
// degrades the shard to catch-up (appends still acked, lag counted)
// instead of permanent local-only journaling, and when the replica
// returns the backoff loop re-streams the dirty journals until
// synchronous replication resumes with the standby fully converged.
func TestReplicationCatchupReconnect(t *testing.T) {
	standby, err := NewShard(ShardConfig{JournalDir: t.TempDir(), Standby: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	flaky := &flakyBackend{inner: standby.Handler()}
	fts := httptest.NewServer(flaky)
	defer fts.Close()

	primary, err := NewShard(ShardConfig{JournalDir: t.TempDir(), ReplicateTo: fts.URL, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	primary.repl.RetryBase = 2 * time.Millisecond
	primary.repl.RetryCap = 20 * time.Millisecond
	pts := httptest.NewServer(primary.Handler())
	defer pts.Close()

	ctx := context.Background()
	c := &session.Client{Base: pts.URL, MaxAttempts: 1}
	st, err := c.Create(ctx, session.CreateRequest{Name: "cr", Topology: "debruijn(2,6)"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddFaults(ctx, "cr", session.FaultsRequest{NodeFaults: []string{st.Ring[1]}}); err != nil {
		t.Fatal(err)
	}
	if rs := primary.Replication(); rs.State != ReplicaOK {
		t.Fatalf("replication state with healthy replica = %s, want ok", rs.State)
	}

	// Outage: appends keep acking, the shard degrades to catch-up and
	// counts the single-copy lag instead of silently dropping the
	// replica for good.
	flaky.down.Store(true)
	for i := 0; i < 2; i++ {
		if _, err := c.AddFaults(ctx, "cr", session.FaultsRequest{NodeFaults: []string{st.Ring[3+2*i]}}); err != nil {
			t.Fatalf("append during replica outage: %v", err)
		}
	}
	rs := primary.Replication()
	if rs.State != ReplicaCatchup || rs.Lag == 0 {
		t.Fatalf("during outage: state=%s lag=%d, want catchup with positive lag", rs.State, rs.Lag)
	}

	// Recovery: the backoff loop re-streams the journal and flips back
	// to synchronous replication with zero lag.
	flaky.down.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		rs = primary.Replication()
		if rs.State == ReplicaOK && rs.Lag == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication never recovered: state=%s lag=%d", rs.State, rs.Lag)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The standby converged on the full journal: its copy ends at the
	// primary's live seq and ring hash.
	sess, ok := primary.Sessions.Get("cr")
	if !ok {
		t.Fatal("session lost on primary")
	}
	snap := sess.StateSnapshot(false)
	evs, err := standby.local.Load("cr")
	if err != nil {
		t.Fatal(err)
	}
	seq, hash := journalSummary(evs)
	if seq != snap.Seq || hash != snap.RingHash {
		t.Fatalf("standby journal ends at %d/%s, primary live at %d/%s", seq, hash, snap.Seq, snap.RingHash)
	}

	// And the next append ships synchronously again.
	before := len(evs)
	if _, err := c.AddFaults(ctx, "cr", session.FaultsRequest{NodeFaults: []string{st.Ring[9]}}); err != nil {
		t.Fatal(err)
	}
	if evs, err = standby.local.Load("cr"); err != nil || len(evs) <= before {
		t.Fatalf("post-recovery append not replicated synchronously: %d events (was %d), %v", len(evs), before, err)
	}
}

// TestEpochGate pins the gate's ordering rules: zero is the unguarded
// manual path, epochs must strictly increase, and rejections report the
// winning epoch.
func TestEpochGate(t *testing.T) {
	var g EpochGate
	if _, ok := g.Admit(0); !ok {
		t.Fatal("epoch 0 (manual op) must always be admitted")
	}
	if _, ok := g.Admit(5); !ok {
		t.Fatal("first real epoch rejected")
	}
	if cur, ok := g.Admit(5); ok || cur != 5 {
		t.Fatalf("replayed epoch admitted (cur=%d ok=%v)", cur, ok)
	}
	if cur, ok := g.Admit(4); ok || cur != 5 {
		t.Fatalf("stale epoch admitted (cur=%d ok=%v)", cur, ok)
	}
	if _, ok := g.Admit(6); !ok {
		t.Fatal("advancing epoch rejected")
	}
	if _, ok := g.Admit(0); !ok {
		t.Fatal("epoch 0 must stay admitted after real epochs")
	}
	if g.Current() != 6 {
		t.Fatalf("current = %d, want 6", g.Current())
	}
}

// TestEpochGateGuardsControlPlane drives the dueling-routers contract
// over HTTP: a shard that has seen epoch N rejects control operations
// with stale epochs via 409 carrying the winning epoch (and, for
// re-targets, the winning target) so the losing router can adopt the
// decision, while promotion stays idempotent regardless of epoch.
func TestEpochGateGuardsControlPlane(t *testing.T) {
	_, ts := newTestShard(t, "", true)
	rc := &ReplicaClient{Base: ts.URL}

	// A winning router re-targets replication at epoch 100.
	if _, err := rc.SetTarget("", 100); err != nil {
		t.Fatalf("SetTarget epoch 100: %v", err)
	}

	// A slower router's decisions at lower epochs bounce with the
	// winning epoch attached.
	var pe *PeerError
	if _, err := rc.SetTarget("http://elsewhere:1", 50); !errors.As(err, &pe) ||
		pe.Status != http.StatusConflict || pe.Epoch != 100 {
		t.Fatalf("stale SetTarget = %v, want 409 PeerError carrying epoch 100", err)
	}
	pe = nil
	if _, err := rc.Promote(50); !errors.As(err, &pe) ||
		pe.Status != http.StatusConflict || pe.Epoch != 100 {
		t.Fatalf("stale Promote = %v, want 409 PeerError carrying epoch 100", err)
	}

	// A fresh epoch proceeds; a replayed promotion — any epoch — is the
	// idempotent convergence path, not a conflict.
	if resp, err := rc.Promote(150); err != nil || resp.Already {
		t.Fatalf("Promote epoch 150 = %+v, %v", resp, err)
	}
	if resp, err := rc.Promote(40); err != nil || !resp.Already {
		t.Fatalf("replayed Promote = %+v, %v; want Already=true", resp, err)
	}
}
