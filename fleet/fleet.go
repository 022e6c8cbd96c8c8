// Package fleet shards the session subsystem across worker processes
// and keeps every shard hot-failoverable — redundancy at the service
// layer to match the redundancy the ring-embedding algorithms provide
// inside the topology.
//
// The fleet has three roles, all built from the same ringsrv binary:
//
//   - A shard owns a slice of the session keyspace: a plain ringsrv
//     process whose session.Manager journals through a ReplicatedStore,
//     so every acknowledged journal event is also appended — before the
//     client sees the ack — to a designated replica shard over HTTP.
//
//   - A replica ingests those events into its own journal store via the
//     /v1/replica endpoints (Replica), cold: sessions are not live until
//     promotion.  Because journals are hash-chained and replay is
//     deterministic and hash-verified (see package session), promotion
//     restores every session bit-identical to the victim's last
//     acknowledged state.
//
//   - The router (Router, command ringfleet) consistent-hashes session
//     names to shard groups, proxies all /v1/sessions traffic — create,
//     fault/heal batches, long-poll and SSE watch — to the owning
//     shard, health-checks each group, and on shard death promotes the
//     replica and re-targets the group, restoring service without
//     losing a single acknowledged event.
//
// Failover is not the end of the story; the fleet heals back to full
// strength and changes shape while serving:
//
//   - Re-replication: after a promotion the router draws a standby
//     from its spare pool (RouterOptions.Spares), re-targets the
//     promoted shard at it (SetTarget), and bootstraps it with a full
//     journal stream per session, so the group survives a second
//     failure.  Catch-up replication retries with jittered backoff;
//     GET /v1/fleet exposes replica_state and replica_lag.
//
//   - Fencing: every control operation (promote, re-target) carries an
//     epoch, gated per shard by a strictly-increasing EpochGate.  A
//     stale primary that resurfaces fails its next replicated append
//     closed — 503 to the client, never a silent local-only ack — and
//     demotes itself to a clean standby.  The gate also lets two
//     uncoordinated routers front the same fleet (router HA): their
//     control ops become last-writer-wins, and a 409 rejection carries
//     the winning epoch and target for the loser to adopt.
//
//   - Live membership: Router.AddShard (POST /v1/fleet/shards) drains
//     the keyspace the new shard steals (requests get retryable 503s
//     with an X-Fleet-Draining marker), hands each moved session's
//     journal off to the new owner, hash-verifies the replayed state
//     against the source, then flips routing and deletes the source
//     copies.  Sessions that stay put never see a retry.
//
// An event's hops allocate in proportion to the event, not to the copy
// machinery around it.  The router's proxies share one pool of 32 KiB
// copy buffers (proxyBufPool) instead of allocating one per proxied
// request, and each group keeps its active URL parsed behind an atomic
// pointer, so routing a request parses nothing and takes no lock.  A
// replication append is built by appending each event's
// session.Event.AppendJSON into a pooled buffer, the bytes json.Marshal
// would write, and the standby journals what it decodes with the same
// encoder, so its journal lines match the primary's byte for byte.
//
// Every peer RPC takes one path.  The replication stream, the router's
// control calls and health probes, and its session-listing and metrics
// fan-outs are each a ReplicaClient call: one request to the peer's
// endpoint, parsed once per client, with a JSON body and a JSON reply
// or a *PeerError.  On the serving side every fleet request body is read
// by one bounded decoder into a pooled buffer, and every error reply is
// {"error":…}, plus the winning epoch and target on a stale-epoch 409.
//
// The paper's thesis — lose a processor, keep the ring — applied one
// level up: lose a shard, keep every session.
package fleet

import "net/http"

// fleetTransport is the HTTP transport shared by the router's proxies
// and the replication clients.  DefaultTransport's 2 idle connections
// per host collapses fleet traffic — dozens of concurrent session
// streams funneling into a handful of shard hosts — into constant
// connection churn; a deep idle pool keeps each stream on a hot
// connection.
var fleetTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 128
	return t
}()
