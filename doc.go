// Package debruijnring embeds fault-tolerant rings in De Bruijn networks,
// implementing R. Rowley and B. Bose, "Fault-Tolerant Ring Embedding in
// De Bruijn Networks" (ICPP 1991; thesis and IEEE ToC 42(12) versions).
//
// The d-ary De Bruijn network B(d,n) connects dⁿ processors, each labeled
// by an n-digit word over Z_d, with links x₁x₂…xₙ → x₂…xₙα.  This package
// answers two questions about it:
//
//   - Node failures (Chapter 2): after up to d−2 processors fail, a ring of
//     length at least dⁿ − nf survives and can be found by a distributed
//     algorithm in Θ(n) communication rounds.  See Graph.EmbedRing and
//     Graph.EmbedRingDistributed.
//
//   - Link failures (Chapter 3): B(d,n) carries ψ(d) pairwise edge-disjoint
//     Hamiltonian cycles (d−1 of them when d is a power of two), and a
//     fault-free Hamiltonian cycle survives any MAX{ψ(d)−1, φ(d)} link
//     failures — optimal (d−2) for prime-power d.  See
//     Graph.DisjointHamiltonianCycles and Graph.EmbedRingEdgeFaults.
//
// # The topology-generic surface
//
// The machinery transfers beyond B(d,n) — to wrapped butterflies when
// gcd(d,n) = 1 (§3.4), shuffle-exchange networks (dilation 2), Kautz
// graphs (Chapter 5, measured exhaustively) and the hypercube baseline
// ([WC92, CL91a]).  The topology subpackage abstracts all of them behind
// one Network interface with a unified FaultSet covering processor and
// link failures together:
//
//	net, _ := topology.FromSpec("debruijn(4,6)")   // or kautz(2,4),
//	// shuffleexchange(3,3), butterfly(3,4), hypercube(12), …
//	ring, info, _ := net.EmbedRing(topology.FaultSet{Nodes: []int{7, 77}})
//	ok := topology.VerifyRing(net, ring, topology.NodeFaults(7, 77))
//
// A FaultSet holds failed processors (Nodes) and failed links (Edges)
// at once.  Each topology dispatches the classes it supports: De Bruijn
// serves node faults (FFC), link faults (§3 Hamiltonian families) and —
// best-effort — mixed sets; shuffle-exchange and hypercube serve node
// faults; butterfly and Kautz serve link faults.  Canonicalization
// (FaultSet.Key) makes fault sets order- and duplicate-insensitive, and
// topology.VerifyRing / VerifyHamiltonian are the single shared
// verification codepath for every topology.
//
// The engine subpackage serves these requests at scale: a concurrent
// embedding engine with an LRU cache keyed by (topology, canonical fault
// set), in-flight deduplication, batched execution across a worker pool
// and per-request statistics:
//
//	eng := engine.New(engine.Options{})
//	res, _ := eng.EmbedRing(ctx, engine.Request{
//		Spec:   "debruijn(4,6)",
//		Faults: topology.NodeFaults(7, 77),
//	})
//	// res.Stats: cache hit, ring length vs. the dⁿ − nf bound,
//	// broadcast rounds, dilation, elapsed time.
//
// Command ringsrv exposes the engine as an HTTP/JSON service (embed,
// verify, disjoint-cycles, broadcast-simulation endpoints, plus a stats
// endpoint reporting cache hit rate and p50/p99 embed latency); command
// ringembed adds a -batch mode over JSON-lines request files.
//
// # Online fault streams
//
// The batch path answers one fault set at a time; the session
// subsystem models the paper's actual regime, where faults arrive —
// and heal — after the ring is embedded.  A session (package session)
// holds a named topology, its current ring and a live FaultSet with a
// bidirectional lifecycle:
//
//	mgr := session.NewManager(eng.Registry(), session.Options{Dir: "/var/lib/rings"})
//	s, _ := mgr.Create("prod", "debruijn(2,10)", topology.FaultSet{})
//	ev, _ := s.AddFaults(topology.NodeFaults(x))      // ev.Repair: "local" | "splice" | "reembed" | "noop" | "rejected"
//	ev, _ = s.RemoveFaults(topology.NodeFaults(x))    // heal: the ring grows back
//
// Both directions attempt a local repair first (package
// internal/repair), by surgery on the FFC algorithm's own structures.
// A faulty necklace is spliced out of the live ring — detach it from
// its star, re-parent orphaned children along surviving shift-edge
// windows, re-close only the touched w-cycles; a faulted ring LINK
// between healthy processors is absorbed by reordering window choices
// within the touched star (Proposition 2.1 holds for any single-cycle
// member order); and RemoveFaults reverses the surgery, re-expanding a
// repaired necklace into the tree.  Each patch is O(touched stars)
// work and preserves the dⁿ − nf bound for the current fault count.  A
// full Embedder re-embed runs only when the patch fails or the paper's
// f ≤ n tolerance is exceeded.  Every transition is appended to a
// journal ("fault" and "heal" events with ring hashes, periodic
// snapshots), so a killed server restores each session to a
// bit-identical ring.  The manager counts every outcome by direction
// and tier in the registry it is given, and session.TotalsFrom turns a
// snapshot of it into the patch hit rate and the heal-direction
// unpatch hit rate.
//
// Over HTTP, ringsrv serves /v1/sessions (CRUD), …/faults (POST
// absorbs a fault batch, DELETE re-admits a repaired one) and …/watch
// (ring deltas via long-poll or SSE).  Command chaos replays
// randomized or recorded lifecycle traces against a server — including
// heal events via -heal-rate, soak runs via -soak, and client-side
// verify/divergence checking via -check — and reports
// repair-vs-recompute latency and the ring-length degradation curve;
// see examples/faultstream for the in-process view.
//
// # The session fleet
//
// One process is a ceiling, so the fleet package shards sessions
// horizontally: ringsrv doubles as a shard worker (fleet.Shard wires
// the manager over a pluggable session.Store and, with -replicate-to,
// synchronously ships every journal event to a standby replica before
// the client's ack), and command ringfleet fronts N shard groups with
// a consistent-hash router (fleet.Router) that proxies all
// /v1/sessions traffic — SSE watch streams included — to the shard
// owning each session name.  When a primary dies the router promotes
// its replica, which restores the replicated journals through the
// same deterministic hash-verified replay as a local restart, so an
// acknowledged event is never lost across a shard kill; chaos
// -sessions drives many concurrent session streams through the router
// to exercise exactly that path.
//
// The fleet also heals and grows without restarts: after a promotion
// the router draws a standby from its -spare pool and re-replicates
// the promoted shard onto it (so a second failure is survivable), a
// returning stale primary is fenced by per-shard epoch gates and
// demotes itself to a clean standby, and POST /v1/fleet/shards adds a
// shard group at runtime — the moved keyspace is drained (clients see
// retryable 503s), each moved session's journal is handed off and
// hash-verified on the new owner, then routing flips.  Two routers
// with the same configuration can front one fleet behind a VIP for
// router HA; the epoch gates make their uncoordinated control
// operations last-writer-wins.  chaos -rebalance exercises the
// membership change under live load.
//
// # Performance
//
// The embedding, verification and Monte-Carlo simulation hot paths run
// on dense, allocation-free kernels: epoch-stamped flat scratch arrays
// (internal/dense) with O(1) reset replace the per-call maps of the
// original implementation, ffc.Embedder carries reusable per-goroutine
// scratch (pooled by the De Bruijn adapter), and ffc.Simulate shards
// trials across a worker pool with per-trial PCG streams whose output
// is bit-identical for a fixed seed at any worker count.  PERF.md
// documents the design and records the benchmark baselines; command
// benchjson emits the machine-readable BENCH_*.json artifacts the CI
// smoke job produces on every push.
//
// # Quick start
//
//	g, _ := debruijnring.New(4, 6)            // 4096-node network
//	ring, stats, _ := g.EmbedRing([]int{faulty1, faulty2})
//	// ring.Nodes is a cycle over the surviving processors,
//	// len(ring.Nodes) ≥ 4096 − 6·2 = 4084.
//
// The concrete types remain thin wrappers over the adapters —
// Graph.Network() and Butterfly.Network() expose the topology-generic
// view — and the necklace-counting formulas of Chapter 4 stay on this
// package (NecklaceCount and friends).
//
// All unit-dilation embeddings return rings that are subgraphs of the
// (faulty) network; the shuffle-exchange transfer has dilation 2 with
// congestion 1 per directed channel.
package debruijnring
