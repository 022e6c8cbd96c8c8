package debruijnring

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"debruijnring/fleet"
	"debruijnring/obs"
	"debruijnring/session"
	"debruijnring/topology"
)

// TestFleetShardProcess is the shard subprocess body for the fleet
// benchmarks: each shard runs as its own OS process pinned to one core
// (GOMAXPROCS=1), modeling one machine of a fleet, so the aggregate
// throughput numbers measure horizontal scaling rather than goroutine
// scheduling inside a single runtime.
func TestFleetShardProcess(t *testing.T) {
	if os.Getenv("FLEET_SHARD_HELPER") != "1" {
		t.Skip("helper-process body; spawned by the fleet benchmarks")
	}
	shard, err := fleet.NewShard(fleet.ShardConfig{
		JournalDir:  os.Getenv("FLEET_SHARD_JOURNAL"),
		ReplicateTo: os.Getenv("FLEET_SHARD_REPLICATE_TO"),
		Standby:     os.Getenv("FLEET_SHARD_STANDBY") == "1",
	})
	if err != nil {
		fmt.Printf("SHARD_ERR=%v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Printf("SHARD_ERR=%v\n", err)
		os.Exit(1)
	}
	fmt.Printf("SHARD_ADDR=http://%s\n", ln.Addr())
	http.Serve(ln, shard.Handler())
}

// startBenchShard launches one single-core shard process and returns
// its base URL.
func startBenchShard(b *testing.B, journal, replicateTo string, standby bool) string {
	b.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestFleetShardProcess$")
	cmd.Env = append(os.Environ(),
		"GOMAXPROCS=1",
		"FLEET_SHARD_HELPER=1",
		"FLEET_SHARD_JOURNAL="+journal,
		"FLEET_SHARD_REPLICATE_TO="+replicateTo,
	)
	if standby {
		cmd.Env = append(cmd.Env, "FLEET_SHARD_STANDBY=1")
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		b.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "SHARD_ADDR="); ok {
				addr <- v
				break
			}
			if v, ok := strings.CutPrefix(sc.Text(), "SHARD_ERR="); ok {
				addr <- "ERR:" + v
				break
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case v := <-addr:
		if strings.HasPrefix(v, "ERR:") {
			b.Fatalf("shard process failed: %s", v[4:])
		}
		return v
	case <-time.After(30 * time.Second):
		b.Fatal("shard process never announced its address")
		return ""
	}
}

// setupBenchSessions creates the benchmark's session population and
// returns its names and per-session fault labels.
func setupBenchSessions(b *testing.B, c *session.Client, sessionsN int) (names, labels []string) {
	b.Helper()
	ctx := context.Background()
	names = make([]string, sessionsN)
	labels = make([]string, sessionsN)
	for i := range names {
		names[i] = fmt.Sprintf("bench-%02d", i)
		st, err := c.Create(ctx, session.CreateRequest{Name: names[i], Topology: "debruijn(2,8)"})
		if err != nil {
			b.Fatal(err)
		}
		labels[i] = st.Ring[1]
	}
	return names, labels
}

// sessionRound runs one traffic round: every session concurrently
// absorbs a fault and heals it (2×sessions events per round).
func sessionRound(b *testing.B, c *session.Client, names, labels []string) {
	b.Helper()
	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, len(names))
	for j := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := session.FaultsRequest{NodeFaults: []string{labels[j]}}
			if _, err := c.AddFaults(ctx, names[j], req); err != nil {
				errc <- err
				return
			}
			if _, err := c.RemoveFaults(ctx, names[j], req); err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		b.Fatal(err)
	default:
	}
}

// benchSessionRounds measures the fleet's session-stream throughput
// against a base URL (a shard directly, or a router fronting several).
// One op is one round (2×sessions events/op), the steady-state traffic
// shape of a fault-evolving fleet.  Comparing ns/op between the
// single-shard and 3-shard benchmarks therefore reads directly as
// horizontal scaling.
func benchSessionRounds(b *testing.B, base string, sessionsN int) {
	c := &session.Client{Base: base}
	names, labels := setupBenchSessions(b, c, sessionsN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sessionRound(b, c, names, labels)
	}
}

// BenchmarkShardSessionRound is the single-process baseline: 64
// sessions streaming fault/heal rounds into one single-core shard.
func BenchmarkShardSessionRound(b *testing.B) {
	base := startBenchShard(b, b.TempDir(), "", false)
	benchSessionRounds(b, base, 64)
}

// BenchmarkFleetSessionRound drives the same 64-session round through
// the consistent-hash router into three single-core shards, each
// synchronously replicating its journal to a single-core standby — the
// full durability tax included.  Read it against ShardSessionRound:
// with at least one core per shard process the ratio measures
// horizontal scaling (the fleet bar is ≥2× the baseline's throughput,
// i.e. ≤½ its ns/op); on a host with fewer cores than shards the
// processes time-share and the ratio instead prices the fleet's
// routing-plus-replication tax per round.
func BenchmarkFleetSessionRound(b *testing.B) {
	groups := make([]fleet.ShardGroup, 3)
	for i := range groups {
		replica := startBenchShard(b, b.TempDir(), "", true)
		primary := startBenchShard(b, b.TempDir(), replica, false)
		groups[i] = fleet.ShardGroup{Name: fmt.Sprintf("g%d", i), Primary: primary, Replica: replica}
	}
	rt, err := fleet.NewRouter(groups, fleet.RouterOptions{CheckInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt)
	defer rts.Close()
	benchSessionRounds(b, rts.URL, 64)
}

// BenchmarkFleetRebalance prices the fleet's live-membership path: the
// same 64-session rounds through the router into two shards, with a
// third shard joining mid-measurement.  The rounds overlapping the
// drain/hand-off/verify window ride the 503-retry choreography, so
// ns/op reads as events-throughput during a rebalance (against
// FleetSessionRound as the undisturbed baseline); drainretries/op
// reports how much of the traffic the drain actually touched.
func BenchmarkFleetRebalance(b *testing.B) {
	groups := make([]fleet.ShardGroup, 2)
	for i := range groups {
		groups[i] = fleet.ShardGroup{
			Name:    fmt.Sprintf("g%d", i),
			Primary: startBenchShard(b, b.TempDir(), "", false),
		}
	}
	rt, err := fleet.NewRouter(groups, fleet.RouterOptions{CheckInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt)
	defer rts.Close()
	joining := startBenchShard(b, b.TempDir(), "", false)

	// The retry budget must outlast the drain window, or rounds
	// overlapping the hand-off fail instead of riding it.
	c := &session.Client{Base: rts.URL, MaxAttempts: 20, RetryBase: 10 * time.Millisecond, RetryCap: 100 * time.Millisecond,
		Metrics: obs.NewRegistry()}
	names, labels := setupBenchSessions(b, c, 64)

	added := make(chan error, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i == 0 {
			go func() {
				added <- rt.AddShard(fleet.ShardGroup{Name: "g-join", Primary: joining})
			}()
		}
		sessionRound(b, c, names, labels)
	}
	b.StopTimer()
	if err := <-added; err != nil {
		b.Fatal(err)
	}
	drains := c.Metrics.Snapshot().Counters[obs.Key("session_client_retries_total", "kind", "drain")]
	b.ReportMetric(float64(drains)/float64(b.N), "drainretries/op")
}

// BenchmarkSessionEventLarge prices one journaled session event on a
// large ring, in process: a B(2,16) session on a DirStore journal
// absorbing a seeded stream of single-node faults and heals with at
// most four live faults.  One op is one event.  At this size the
// local repair itself is a small share of the event; the rest is the
// session's bookkeeping around it (delta application, journal line,
// periodic audited snapshots), which this benchmark keeps priced.
func BenchmarkSessionEventLarge(b *testing.B) {
	benchSessionEvents(b, 16)
}

// BenchmarkSessionEventScaling runs the BenchmarkSessionEventLarge
// stream on B(2,n) for n = 10, 14 and 16.  The per-event cost's growth
// with dⁿ is amortized O(dⁿ) work: the audited journal snapshot every
// 32 events (the full VerifyRing and the FFC state), and the session
// ring's flatten every few dozen events (PERF.md "Piece-table ring").
func BenchmarkSessionEventScaling(b *testing.B) {
	for _, n := range []int{10, 14, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchSessionEvents(b, n) })
	}
}

// benchSessionEvents times b.N events of the seeded fault/heal stream
// on a journaled B(2,n) session.
func benchSessionEvents(b *testing.B, n int) {
	m := session.NewManager(nil, session.Options{Dir: b.TempDir()})
	s, err := m.Create("large", fmt.Sprintf("debruijn(2,%d)", n), topology.FaultSet{})
	if err != nil {
		b.Fatal(err)
	}
	nodes := s.Network().Nodes()
	rng := rand.New(rand.NewSource(1))
	var live []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(live) == 4 || (len(live) > 0 && rng.Intn(2) == 0) {
			j := rng.Intn(len(live))
			if _, err := s.RemoveFaults(topology.NodeFaults(live[j])); err != nil {
				b.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
			continue
		}
		x := rng.Intn(nodes)
		for slices.Contains(live, x) {
			x = rng.Intn(nodes)
		}
		// A rejected batch leaves the fault set unchanged.
		if _, err := s.AddFaults(topology.NodeFaults(x)); err == nil {
			live = append(live, x)
		}
	}
	b.StopTimer() // the closing snapshot is not an event
	m.Close()
}

// BenchmarkSessionStateRead prices one ring read of a B(2,16) session
// with 3 node faults, split at the wire: render is the GET handler
// writing the ~1.2 MB state body, decode is a client's json.Unmarshal
// of that body into a session.StateJSON.  A read is the two together.
func BenchmarkSessionStateRead(b *testing.B) {
	m := session.NewManager(nil, session.Options{})
	defer m.Close()
	if _, err := m.Create("read", "debruijn(2,16)", topology.NodeFaults(1000, 20000, 40000)); err != nil {
		b.Fatal(err)
	}
	h := session.Handler(m)
	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/read", nil)
	w := &bodyWriter{header: http.Header{}}
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		b.Fatalf("GET: status %d: %.200s", w.status, w.body)
	}
	body := w.body
	b.Run("render", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.ServeHTTP(w, req)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var st session.StateJSON
			if err := json.Unmarshal(body, &st); err != nil || len(st.Ring) != st.RingLength {
				b.Fatalf("decode: %v, %d labels for ring_length %d", err, len(st.Ring), st.RingLength)
			}
		}
	})
}

// bodyWriter is a ResponseWriter keeping the last body written whole,
// without the growing buffer an httptest.ResponseRecorder would add to
// the render's allocations.
type bodyWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *bodyWriter) Header() http.Header { return w.header }

func (w *bodyWriter) WriteHeader(status int) { w.status = status }

func (w *bodyWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = p
	return len(p), nil
}
