// Command ringsrv serves fault-tolerant ring embedding over HTTP/JSON:
// the concurrent, memoizing engine of package engine fronted by the
// one-shot embedding endpoints, plus the session subsystem for
// long-lived fault-evolving topologies.
//
//	POST /v1/embed            {"topology":"debruijn(3,3)","node_faults":["020","112"]}
//	POST /v1/verify           {"topology":"...", "ring":[...], "node_faults":[...], "edge_faults":[...]}
//	POST /v1/disjoint-cycles  {"topology":"debruijn(4,3)","max_cycles":2}
//	POST /v1/broadcast        {"topology":"debruijn(4,2)","message_size":12,"rings":3}
//	GET  /v1/stats            engine cache + session repair counters
//	GET  /metrics             Prometheus text exposition (histograms included)
//	GET  /v1/metrics          the same registry as a JSON snapshot
//	GET  /healthz
//
//	POST   /v1/sessions                create an incremental-repair session
//	GET    /v1/sessions                list sessions
//	GET    /v1/sessions/{name}         session state (ring, faults, stats)
//	DELETE /v1/sessions/{name}         close and remove a session
//	POST   /v1/sessions/{name}/faults  absorb a fault batch (local repair or re-embed)
//	DELETE /v1/sessions/{name}/faults  re-admit a repaired batch (local un-patch or re-embed)
//	GET    /v1/sessions/{name}/watch   stream ring deltas (long-poll or SSE)
//	GET    /v1/sessions/{name}/trace   recent repair traces (per-tier timings)
//
//	POST   /v1/replica/append          ingest a peer's journal events
//	DELETE /v1/replica/sessions/{name} drop a replicated journal
//	POST   /v1/replica/promote         restore replicated journals hot (epoch-guarded)
//	GET    /v1/replica/status          replication status
//
//	GET  /v1/replication               outbound replication state, target, lag
//	POST /v1/replication/target        re-target replication and bootstrap the new standby
//	POST /v1/replication/handoff       stream one session's journal to another shard
//	POST /v1/replication/adopt         restore a streamed-in journal hot
//	POST /v1/replication/forget        drop a handed-off journal
//
// Usage:
//
//	ringsrv -addr :8080 -cache 1024 -journal /var/lib/ringsrv
//
// With -journal set, every session transition is appended to
// <dir>/<name>.journal and sessions are restored from their journals at
// startup, so a killed server resumes each session with an identical
// ring.
//
// Fleet mode: with -replicate-to http://peer:8081 every journal append
// is synchronously shipped to the peer's /v1/replica endpoints before
// the event is acknowledged, so losing this process loses no
// acknowledged event.  With -standby the startup restore is skipped —
// the process holds replicated journals cold until a router (see
// cmd/ringfleet) promotes it.  An unreachable replica degrades the
// shard to catch-up replication (journals are re-streamed with backoff
// until the standby converges), and the router can re-target
// replication at a fresh standby at runtime.  If the peer turns out to
// be promoted — this process is a stale ex-primary — the shard fences
// itself (503 on /v1/sessions) and demotes to a clean standby instead
// of serving stale sessions.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"debruijnring/engine"
	"debruijnring/fleet"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheSize := flag.Int("cache", engine.DefaultCacheSize, "LRU entries memoized per (topology, fault set); negative disables")
	journalDir := flag.String("journal", "", "session journal directory (empty = sessions are in-memory only)")
	snapshotEvery := flag.Int("snapshot-every", 32, "journal snapshot cadence in fault events")
	replicateTo := flag.String("replicate-to", "", "peer base URL to stream journal events to (fleet shard mode)")
	standby := flag.Bool("standby", false, "skip the startup restore; hold journals cold until promoted")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
	flag.Parse()

	shard, err := fleet.NewShard(fleet.ShardConfig{
		JournalDir:    *journalDir,
		ReplicateTo:   *replicateTo,
		Standby:       *standby,
		SnapshotEvery: *snapshotEvery,
		CacheSize:     *cacheSize,
		Logf:          log.Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringsrv:", err)
		os.Exit(1)
	}
	if shard.Restored > 0 {
		log.Printf("ringsrv: restored %d session(s) from %s", shard.Restored, *journalDir)
	}
	defer shard.Close()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           newServer(shard, *enablePprof),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("ringsrv: listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "ringsrv:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		log.Print("ringsrv: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "ringsrv: shutdown:", err)
			os.Exit(1)
		}
	}
}
