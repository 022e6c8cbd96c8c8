package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"debruijnring/session"
)

// Replica is the ingest side of shard replication: it receives journal
// events from a primary shard's ReplicatedStore and appends them —
// cold, without running the session state machine — to this process's
// local store.  On promotion it closes the ingest writers and restores
// every journal through the session manager's deterministic,
// hash-verified replay, bringing the victim's sessions back hot.
type Replica struct {
	store session.Store    // local store the events are appended to
	mgr   *session.Manager // promotion target; its Restore goes hot
	gate  *EpochGate       // epoch-guards promotion; shared with the shard's control endpoints
	logf  func(string, ...any)

	mu       sync.Mutex
	writers  map[string]session.JournalWriter
	promoted bool
}

// NewReplica returns a Replica appending into store and promoting into
// mgr.  store must be the process-local store (not a ReplicatedStore):
// ingested events are already someone else's replication stream.  gate
// guards promotion, so two routers racing the same failover converge on
// one winner; the shard passes the gate of its control endpoints.
func NewReplica(store session.Store, mgr *session.Manager, gate *EpochGate, logf func(string, ...any)) *Replica {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Replica{store: store, mgr: mgr, gate: gate, logf: logf, writers: make(map[string]session.JournalWriter)}
}

// appendRequest is the replication wire format: one session's events,
// in journal order.  ReplicaClient.Append writes it by hand, as
// json.Marshal would.
type appendRequest struct {
	Name   string          `json:"name"`
	Events []session.Event `json:"events"`
}

// promoteRequest carries the (optional) epoch of the router issuing the
// promotion; zero/absent is unguarded.
type promoteRequest struct {
	Epoch uint64 `json:"epoch,omitempty"`
}

// promoteResponse reports a promotion: sessions restored hot and the
// journals that failed replay (left on disk, untouched).
type promoteResponse struct {
	Restored int      `json:"restored"`
	Already  bool     `json:"already,omitempty"`
	Errors   []string `json:"errors,omitempty"`
}

// statusResponse is the replica's observability snapshot.
type statusResponse struct {
	Promoted bool     `json:"promoted"`
	Journals []string `json:"journals"`
}

// Handler exposes the replication endpoints, mounted under /v1/replica:
//
//	POST   /v1/replica/append          ingest one batch of journal events
//	DELETE /v1/replica/sessions/{name} drop a replicated journal
//	POST   /v1/replica/promote         restore every journal hot (idempotent)
//	GET    /v1/replica/status          promoted flag + replicated journals
func (rp *Replica) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/replica/append", rp.handleAppend)
	mux.HandleFunc("DELETE /v1/replica/sessions/{name}", rp.handleRemove)
	mux.HandleFunc("POST /v1/replica/promote", rp.handlePromote)
	mux.HandleFunc("GET /v1/replica/status", rp.handleStatus)
	return mux
}

func (rp *Replica) handleAppend(w http.ResponseWriter, r *http.Request) {
	if rp.store == nil {
		replicaError(w, http.StatusServiceUnavailable, errors.New("replica: no journal store (start the shard with -journal)"))
		return
	}
	var req appendRequest
	if !decodeBody(w, r, 64<<20, "append", &req) {
		return
	}
	if !session.ValidName(req.Name) || len(req.Events) == 0 {
		replicaError(w, http.StatusBadRequest, errors.New("append needs a valid session name and at least one event"))
		return
	}
	n, err := rp.ingest(req.Name, req.Events)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, errPromoted) {
			status = http.StatusConflict
		}
		replicaError(w, status, err)
		return
	}
	// {"appended":n}, as writeReplicaJSON would encode it.
	body := strconv.AppendInt([]byte(`{"appended":`), int64(n), 10)
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, "}\n"...))
}

// errPromoted refuses ingest after promotion: the journals now back
// live sessions appending their own events.
var errPromoted = errors.New("replica: promoted; no longer accepting replication")

// ingest appends one batch to the named journal, opening (or creating)
// it on first touch.  A batch starting with the session's created event
// replaces any stale journal of the same name, so a re-created session
// mirrors cleanly over leftovers from a deleted ancestor.
func (rp *Replica) ingest(name string, events []session.Event) (int, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.promoted {
		return 0, errPromoted
	}
	if rp.mgr != nil {
		if _, live := rp.mgr.Get(name); live {
			return 0, fmt.Errorf("replica: session %q is live on this shard", name)
		}
	}
	w, err := rp.writerLocked(name, events[0])
	if err != nil {
		return 0, err
	}
	for i, ev := range events {
		if err := w.Append(ev); err != nil {
			return i, fmt.Errorf("replica: append %s seq %d: %w", name, ev.Seq, err)
		}
	}
	return len(events), nil
}

func (rp *Replica) writerLocked(name string, first session.Event) (session.JournalWriter, error) {
	if first.Kind == "created" && first.Seq == 0 {
		// A fresh stream: drop any cached writer and stale journal.
		if w, ok := rp.writers[name]; ok {
			w.Close()
			delete(rp.writers, name)
		}
		if err := rp.store.Remove(name); err != nil {
			return nil, err
		}
		w, err := rp.store.Create(name)
		if err != nil {
			return nil, err
		}
		rp.writers[name] = w
		return w, nil
	}
	if w, ok := rp.writers[name]; ok {
		return w, nil
	}
	w, err := rp.store.Open(name)
	if errors.Is(err, fs.ErrNotExist) {
		// Mid-stream adoption (the primary outlived a replica restart):
		// accept the tail so failover still has the recent events; the
		// next created stream replaces it.
		w, err = rp.store.Create(name)
	}
	if err != nil {
		return nil, err
	}
	rp.writers[name] = w
	return w, nil
}

func (rp *Replica) handleRemove(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rp.mu.Lock()
	if jw, ok := rp.writers[name]; ok {
		jw.Close()
		delete(rp.writers, name)
	}
	var err error
	if rp.store != nil && !rp.promoted {
		err = rp.store.Remove(name)
	}
	rp.mu.Unlock()
	if err != nil {
		replicaError(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handlePromote flips the replica hot: ingest stops, every replicated
// journal is restored through the manager's hash-verified replay, and
// the process serves /v1/sessions for the victim's keyspace from here
// on.  Promoting twice is a cheap no-op — checked before the epoch
// guard, so two routers racing the same failover both converge on the
// one promotion instead of the loser seeing a rejection.
func (rp *Replica) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req promoteRequest
	// The body is optional (legacy and manual promotions send none): one
	// that does not decode leaves the promotion unguarded.
	readJSON(w, r, 1<<16, &req)
	rp.mu.Lock()
	if rp.promoted {
		rp.mu.Unlock()
		writeReplicaJSON(w, promoteResponse{Already: true})
		return
	}
	if !rp.gate.admit(w, req.Epoch, "", "replica: stale promotion") {
		rp.mu.Unlock()
		return
	}
	rp.promoted = true
	//ringlint:allow maporder close order across journal writers is immaterial
	for name, jw := range rp.writers {
		jw.Close()
		delete(rp.writers, name)
	}
	rp.mu.Unlock()

	resp := promoteResponse{}
	if rp.mgr != nil {
		restored, errs := rp.mgr.Restore()
		resp.Restored = len(restored)
		for _, err := range errs {
			resp.Errors = append(resp.Errors, err.Error())
		}
	}
	rp.logf("fleet: promoted: %d session(s) restored hot, %d error(s)", resp.Restored, len(resp.Errors))
	writeReplicaJSON(w, resp)
}

func (rp *Replica) handleStatus(w http.ResponseWriter, r *http.Request) {
	rp.mu.Lock()
	promoted := rp.promoted
	rp.mu.Unlock()
	st := statusResponse{Promoted: promoted, Journals: []string{}}
	if rp.store != nil {
		if names, err := rp.store.Names(); err == nil {
			st.Journals = names
		}
	}
	writeReplicaJSON(w, st)
}

// Promoted reports whether the replica has gone hot.
func (rp *Replica) Promoted() bool {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.promoted
}

// Close releases the ingest writers (a standby being shut down).
func (rp *Replica) Close() {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	//ringlint:allow maporder close order across journal writers is immaterial
	for name, jw := range rp.writers {
		jw.Close()
		delete(rp.writers, name)
	}
}

// ReplicaClient is one peer's client, for both the replication stream
// (Append, Remove, Status and Promote on the peer's /v1/replica
// endpoints) and the shard control plane a router drives (SetTarget,
// Replication, Handoff, Adopt and Forget on /v1/replication).  Every
// method is one call: a request to the peer's endpoint, Base parsed on
// first use, plus the method's path; a JSON body; a JSON reply, or a
// *PeerError for an error status.
type ReplicaClient struct {
	// Base is the peer's server root, e.g. "http://replica1:8080".
	Base string
	// HTTP is the underlying client; nil uses a keep-alive client with
	// a 10s timeout (replication is synchronous on the ack path — a
	// bounded timeout keeps a hung replica from wedging the shard).
	HTTP *http.Client

	endpoint atomic.Pointer[url.URL] // Base, parsed by the first call
}

// replicaHTTP is the shared default client: replication sits on the ack
// path of every event, so it runs on the fleet transport's deep
// keep-alive pool.
var replicaHTTP = &http.Client{Timeout: 10 * time.Second, Transport: fleetTransport}

// ErrPeerPromoted reports that the peer refused a replication write
// because it has been promoted: the caller is a stale ex-primary whose
// journals are superseded, and must fence itself (see
// ReplicatedStore).
var ErrPeerPromoted = errors.New("fleet: peer replica is promoted")

// PeerError is a decoded HTTP error from a peer's control endpoints.
// Epoch-guarded rejections carry the winning epoch (and, for
// replication re-targeting, the winning target) so a stale router can
// adopt the winner's state instead of retrying blindly.
type PeerError struct {
	Status int
	Msg    string
	Epoch  uint64
	Target string
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("%s (HTTP %d)", e.Msg, e.Status)
}

// call is every peer RPC: method on path under the peer's endpoint,
// with in as the JSON body — a []byte is sent as it is, any other
// non-nil value is marshalled — and a 2xx reply decoded into out (nil
// discards it).  An error status comes back as a *PeerError.
func (c *ReplicaClient) call(method, path string, in, out any) error {
	base := c.endpoint.Load()
	if base == nil {
		u, err := url.Parse(c.Base)
		if err != nil {
			return err
		}
		c.endpoint.Store(u)
		base = u
	}
	u := *base
	u.Path += path
	req := &http.Request{Method: method, URL: &u, Header: make(http.Header)}
	if in != nil {
		body, ok := in.([]byte)
		if !ok {
			var err error
			if body, err = json.Marshal(in); err != nil {
				return err
			}
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		req.ContentLength = int64(len(body))
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTP
	if hc == nil {
		hc = replicaHTTP
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e struct {
			Error  string `json:"error"`
			Epoch  uint64 `json:"epoch,omitempty"`
			Target string `json:"target,omitempty"`
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return &PeerError{
				Status: resp.StatusCode,
				Msg:    fmt.Sprintf("replica %s: %s", u.Path, e.Error),
				Epoch:  e.Epoch,
				Target: e.Target,
			}
		}
		return &PeerError{Status: resp.StatusCode, Msg: fmt.Sprintf("replica %s: HTTP %d", u.Path, resp.StatusCode)}
	}
	if out == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// fetch makes one call and returns its decoded reply.
func fetch[T any](c *ReplicaClient, method, path string, in any) (*T, error) {
	out := new(T)
	if err := c.call(method, path, in, out); err != nil {
		return nil, err
	}
	return out, nil
}

// appendBufs pools the buffers Append encodes its bodies in.
var appendBufs = sync.Pool{New: func() any { return new([]byte) }}

// Append ships one batch of journal events for the named session.  The
// body is byte for byte json.Marshal's encoding of the appendRequest,
// built by appending each event's AppendJSON into a pooled buffer and
// then copied once into the request: the transport may still read a
// request body after Do returns, so the pooled buffer cannot be the
// body itself.  The replica refuses an invalid name or an empty batch,
// so neither is sent.
func (c *ReplicaClient) Append(name string, events []session.Event) error {
	if !session.ValidName(name) || len(events) == 0 {
		return fmt.Errorf("fleet: replicate %q: append needs a valid session name and at least one event", name)
	}
	bp := appendBufs.Get().(*[]byte)
	b := append((*bp)[:0], `{"name":"`...)
	b = append(b, name...) // a valid name needs no escaping
	b = append(b, `","events":[`...)
	for i := range events {
		if i > 0 {
			b = append(b, ',')
		}
		start := len(b)
		b = htmlEscapeFrom(events[i].AppendJSON(b), start)
	}
	b = append(b, ']', '}')
	body := bytes.Clone(b)
	*bp = b
	appendBufs.Put(bp)
	return markPromoted(c.call(http.MethodPost, "/v1/replica/append", body, nil))
}

// htmlEscapeFrom rewrites '<', '>' and '&' in b[start:] the way
// json.Marshal escapes them (\u003c, \u003e, \u0026); in JSON text they
// occur only inside strings.
func htmlEscapeFrom(b []byte, start int) []byte {
	if !bytes.ContainsAny(b[start:], "<>&") {
		return b
	}
	var esc bytes.Buffer
	json.HTMLEscape(&esc, b[start:])
	return append(b[:start], esc.Bytes()...)
}

// catchupBatch bounds the events in one append of a stream.
const catchupBatch = 512

// stream ships a whole journal in appends of at most catchupBatch
// events: a rebalance hand-off and a catch-up re-stream.  A journal
// starting with its created event replaces the peer's copy, so a
// half-shipped stream is simply replaced by the next.
func (c *ReplicaClient) stream(name string, events []session.Event) error {
	for start := 0; start < len(events); start += catchupBatch {
		if err := c.Append(name, events[start:min(start+catchupBatch, len(events))]); err != nil {
			return err
		}
	}
	return nil
}

// Remove drops the named session's replicated journal.
func (c *ReplicaClient) Remove(name string) error {
	return markPromoted(c.call(http.MethodDelete, "/v1/replica/sessions/"+name, nil, nil))
}

// markPromoted wraps a 409 from the replication write path in
// ErrPeerPromoted (the only way those endpoints answer Conflict).
func markPromoted(err error) error {
	var pe *PeerError
	if errors.As(err, &pe) && pe.Status == http.StatusConflict {
		return fmt.Errorf("%w: %s", ErrPeerPromoted, pe.Msg)
	}
	return err
}

// Status fetches the peer's replica status — a restarting ex-primary
// asks this before restoring, so a promotion that happened while it was
// dead fences it immediately instead of on its first stale append.
func (c *ReplicaClient) Status() (*statusResponse, error) {
	return fetch[statusResponse](c, http.MethodGet, "/v1/replica/status", nil)
}

// Promote flips the replica hot, returning the restore report.  epoch
// guards against dueling routers (0 is unguarded); a stale epoch is
// rejected with a *PeerError carrying the winning epoch.
func (c *ReplicaClient) Promote(epoch uint64) (*promoteResponse, error) {
	return fetch[promoteResponse](c, http.MethodPost, "/v1/replica/promote", promoteRequest{Epoch: epoch})
}

// bodyBufs pools the buffers request bodies are read into.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readJSON is the fleet's one request-body decoder: it reads r's body,
// at most limit bytes, into a pooled buffer and unmarshals it into v.
// Unmarshal copies what it keeps, so the buffer goes straight back.
func readJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), v)
	}
	bodyBufs.Put(buf)
	return err
}

// decodeBody reads a required request body into v, answering 400 with
// "bad <what> body: …" and reporting false when it does not decode.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	if err := readJSON(w, r, limit, v); err != nil {
		replicaError(w, http.StatusBadRequest, fmt.Errorf("bad %s body: %w", what, err))
		return false
	}
	return true
}

func writeReplicaJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func replicaError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// replicaReject answers an epoch-guarded rejection: 409 plus the
// winning epoch (and target, when relevant) so the stale caller can
// adopt the winner's state.
func replicaReject(w http.ResponseWriter, epoch uint64, target string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusConflict)
	json.NewEncoder(w).Encode(map[string]any{
		"error":  err.Error(),
		"epoch":  epoch,
		"target": target,
	})
}
