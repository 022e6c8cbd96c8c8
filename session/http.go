package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"debruijnring/topology"
)

// Handler exposes a Manager over HTTP/JSON, mountable next to the
// ringsrv embedding endpoints:
//
//	POST   /v1/sessions                create {"name","topology","node_faults","edge_faults"}
//	GET    /v1/sessions                list summaries
//	GET    /v1/sessions/{name}         full state (?ring=false omits the ring)
//	DELETE /v1/sessions/{name}         close and remove (journal included)
//	POST   /v1/sessions/{name}/faults  absorb one fault batch
//	DELETE /v1/sessions/{name}/faults  re-admit one repaired batch (heal)
//	GET    /v1/sessions/{name}/watch   stream events: long-poll (?after=N&wait=30s)
//	                                   or SSE with Accept: text/event-stream
//	GET    /v1/sessions/{name}/trace   recent repair traces (?limit=N), newest-bounded
//
// Fault and heal responses carry the event's "repair" field naming the
// ladder tier that served it: "local" (structural surgery), "splice"
// (generic bypass repair after the structural tier declined), "reembed"
// (full recompute), "noop" or "rejected".  The session's Stats block
// counts the same tiers cumulatively.
func Handler(m *Manager) http.Handler {
	h := &handler{m: m}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", h.create)
	mux.HandleFunc("GET /v1/sessions", h.list)
	mux.HandleFunc("GET /v1/sessions/{name}", h.get)
	mux.HandleFunc("DELETE /v1/sessions/{name}", h.delete)
	mux.HandleFunc("POST /v1/sessions/{name}/faults", h.addFaults)
	mux.HandleFunc("DELETE /v1/sessions/{name}/faults", h.removeFaults)
	mux.HandleFunc("GET /v1/sessions/{name}/watch", h.watch)
	mux.HandleFunc("GET /v1/sessions/{name}/trace", h.trace)
	return mux
}

type handler struct{ m *Manager }

// EdgeJSON is a faulty link named by processor labels.
type EdgeJSON struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// CreateRequest is the POST /v1/sessions payload.
type CreateRequest struct {
	Name       string     `json:"name"`
	Topology   string     `json:"topology"`
	NodeFaults []string   `json:"node_faults,omitempty"`
	EdgeFaults []EdgeJSON `json:"edge_faults,omitempty"`
}

// FaultsRequest is the POST /v1/sessions/{name}/faults payload.
type FaultsRequest struct {
	NodeFaults []string   `json:"node_faults,omitempty"`
	EdgeFaults []EdgeJSON `json:"edge_faults,omitempty"`
}

// StateJSON is the HTTP rendering of a session's state.  Ring nodes are
// labels (like every other endpoint); events carry raw node ids.
type StateJSON struct {
	Name       string     `json:"name"`
	Topology   string     `json:"topology"`
	Seq        uint64     `json:"seq"`
	Ring       Labels     `json:"ring,omitempty"`
	RingLength int        `json:"ring_length"`
	LowerBound int        `json:"lower_bound"`
	RingHash   string     `json:"ring_hash"`
	NodeFaults []string   `json:"node_faults,omitempty"`
	EdgeFaults []EdgeJSON `json:"edge_faults,omitempty"`
	Stats      Stats      `json:"stats"`
}

// FaultsResponse pairs the absorbed event with the resulting summary.
type FaultsResponse struct {
	Event Event     `json:"event"`
	State StateJSON `json:"state"`
}

// WatchResponse is the long-poll result.
type WatchResponse struct {
	Events    []Event `json:"events"`
	Truncated bool    `json:"truncated,omitempty"` // refetch state; buffer evicted events
}

// summary renders a state without its ring: a list entry, the state of
// a fault response, and every field of a state body but the ring.
func summary(net topology.Network, st State) StateJSON {
	out := StateJSON{
		Name:       st.Name,
		Topology:   st.Spec,
		Seq:        st.Seq,
		RingLength: st.RingLength,
		LowerBound: st.LowerBound,
		RingHash:   st.RingHash,
		Stats:      st.Stats,
	}
	for _, v := range st.FaultNodes {
		out.NodeFaults = append(out.NodeFaults, net.Label(v))
	}
	for _, e := range st.FaultEdges {
		out.EdgeFaults = append(out.EdgeFaults, EdgeJSON{From: net.Label(e[0]), To: net.Label(e[1])})
	}
	return out
}

// ringKey is where the ring goes in a state body: StateJSON declares it
// between seq and ring_length.  A quote inside an encoded string is
// always escaped, so the first occurrence of ringKey in an encoded
// summary is the ring_length key itself.
var ringKey = []byte(`,"ring_length":`)

// writeState writes a session's state body: byte for byte the
// json.Encoder output of its StateJSON, ring included when includeRing.
// Only the int32 ring and the small fields are copied under the session
// lock; the summary is encoded by encoding/json, and the ring is
// spliced in label by label through AppendLabels.
func writeState(w http.ResponseWriter, status int, s *Session, includeRing bool) {
	st, ring := s.stateRing(includeRing)
	net := s.Network()
	b, err := json.Marshal(summary(net, st))
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if len(ring) == 0 { // omitempty
		writeBody(w, status, append(b, '\n'))
		return
	}
	i := bytes.Index(b, ringKey)
	WriteRing(w, status, append(b[:i:i], `,"ring":`...), net, ring, append(b[i:], '\n'))
}

func (h *handler) create(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	net, err := parseTopology(req.Topology)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	faults, err := parseFaults(net, req.NodeFaults, req.EdgeFaults)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s, err := h.m.Create(req.Name, req.Topology, faults)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, errSessionExists) {
			status = http.StatusConflict
		} else if !ValidName(req.Name) {
			status = http.StatusBadRequest
		}
		httpError(w, status, err)
		return
	}
	writeState(w, http.StatusCreated, s, true)
}

func (h *handler) list(w http.ResponseWriter, r *http.Request) {
	sessions := h.m.List()
	out := make([]StateJSON, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, summary(s.Network(), s.StateSnapshot(false)))
	}
	writeJSON(w, out)
}

func (h *handler) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	name := r.PathValue("name")
	s, ok := h.m.Get(name)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no session %q", name))
		return nil, false
	}
	return s, true
}

func (h *handler) get(w http.ResponseWriter, r *http.Request) {
	s, ok := h.session(w, r)
	if !ok {
		return
	}
	writeState(w, http.StatusOK, s, r.URL.Query().Get("ring") != "false")
}

func (h *handler) delete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := h.m.Delete(name); err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *handler) addFaults(w http.ResponseWriter, r *http.Request) {
	h.applyFaults(w, r, (*Session).AddFaults)
}

// removeFaults serves the heal direction: DELETE …/faults re-admits the
// batch named in the body (the same shape POST absorbs).
func (h *handler) removeFaults(w http.ResponseWriter, r *http.Request) {
	h.applyFaults(w, r, (*Session).RemoveFaults)
}

func (h *handler) applyFaults(w http.ResponseWriter, r *http.Request, apply func(*Session, topology.FaultSet) (*Event, error)) {
	s, ok := h.session(w, r)
	if !ok {
		return
	}
	var req FaultsRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	faults, err := parseFaults(s.Network(), req.NodeFaults, req.EdgeFaults)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ev, err := apply(s, faults)
	if err != nil {
		if ev == nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		// The batch was rejected (journaled); report it with the error.
		writeJSONStatus(w, http.StatusUnprocessableEntity,
			FaultsResponse{Event: *ev, State: summary(s.Network(), s.StateSnapshot(false))})
		return
	}
	writeJSON(w, FaultsResponse{Event: *ev, State: summary(s.Network(), s.StateSnapshot(false))})
}

// TraceResponse is the GET /v1/sessions/{name}/trace payload: the
// session's retained repair traces, oldest first.
type TraceResponse struct {
	Name    string        `json:"name"`
	Records []TraceRecord `json:"records"`
}

// trace serves the session's retained per-event repair traces: tier
// descents with outcomes, touched-structure counts and latencies.
// ?limit=N bounds the result to the N most recent records.
func (h *handler) trace(w http.ResponseWriter, r *http.Request) {
	s, ok := h.session(w, r)
	if !ok {
		return
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
	}
	recs := s.Traces(limit)
	if recs == nil {
		recs = []TraceRecord{}
	}
	writeJSON(w, TraceResponse{Name: s.Name(), Records: recs})
}

// maxWatchWait caps one long-poll (clients re-issue the request).
const maxWatchWait = 5 * time.Minute

func (h *handler) watch(w http.ResponseWriter, r *http.Request) {
	s, ok := h.session(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	var after uint64
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad after %q", v))
			return
		}
		after = n
	}
	wait := 25 * time.Second
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q", v))
			return
		}
		wait = d
	}
	if wait > maxWatchWait {
		wait = maxWatchWait
	}

	if r.Header.Get("Accept") == "text/event-stream" || q.Get("stream") == "sse" {
		h.watchSSE(w, r, s, after)
		return
	}
	evs, truncated := s.EventsSince(after, wait, r.Context().Done())
	writeJSON(w, WatchResponse{Events: evs, Truncated: truncated})
}

// watchSSE streams ring deltas as Server-Sent Events until the client
// disconnects.
func (h *handler) watchSSE(w http.ResponseWriter, r *http.Request, s *Session, after uint64) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	enc := json.NewEncoder(w)
	for {
		evs, truncated := s.EventsSince(after, 25*time.Second, r.Context().Done())
		if r.Context().Err() != nil {
			return
		}
		if truncated {
			fmt.Fprintf(w, "event: truncated\ndata: {\"after\":%d}\n\n", after)
		}
		if len(evs) == 0 {
			if s.IsClosed() {
				// Deleted or shut down: end the stream instead of
				// spinning on the now non-blocking EventsSince.
				fmt.Fprint(w, "event: closed\ndata: {}\n\n")
				fl.Flush()
				return
			}
			// Keep-alive comment so proxies do not drop the stream.
			fmt.Fprint(w, ": keep-alive\n\n")
			fl.Flush()
			continue
		}
		for _, ev := range evs {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: ", ev.Seq, ev.Kind)
			enc.Encode(ev) // Encode terminates with \n
			fmt.Fprint(w, "\n")
			after = ev.Seq
		}
		fl.Flush()
	}
}

func parseTopology(spec string) (topology.RingEmbedder, error) {
	if spec == "" {
		return nil, errors.New("missing topology spec")
	}
	return topology.FromSpec(spec)
}

func parseFaults(net topology.Network, nodes []string, edges []EdgeJSON) (topology.FaultSet, error) {
	pairs := make([][2]string, len(edges))
	for i, e := range edges {
		pairs[i] = [2]string{e.From, e.To}
	}
	return topology.ParseFaults(net, nodes, pairs)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeJSONStatus writes a JSON body under a non-200 status; the header
// must be set before WriteHeader or net/http drops it.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
