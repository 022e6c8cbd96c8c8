package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"

	"debruijnring/engine"
	"debruijnring/fleet"
	"debruijnring/internal/broadcast"
	"debruijnring/session"
	"debruijnring/topology"
)

// server fronts a fleet shard with the one-shot embedding endpoints.
type server struct {
	eng *engine.Engine
	mux *http.ServeMux
}

// newServer mounts the one-shot embedding endpoints on the shard's
// engine, next to the shard's own handler, which serves the session,
// replica and replication routes (with the shard's split-brain fence
// and control plane), stats, metrics and health.  enablePprof mounts
// net/http/pprof under /debug/pprof/ (opt-in: the profiles leak
// internals, so production deployments keep it off unless diagnosing).
func newServer(shard *fleet.Shard, enablePprof bool) *server {
	s := &server{eng: shard.Engine, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/embed", s.handleEmbed)
	s.mux.HandleFunc("POST /v1/verify", s.handleVerify)
	s.mux.HandleFunc("POST /v1/disjoint-cycles", s.handleDisjointCycles)
	s.mux.HandleFunc("POST /v1/broadcast", s.handleBroadcast)
	if enablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	shardH := shard.Handler()
	for _, p := range []string{
		"/v1/sessions", "/v1/sessions/", "/v1/replica/", "/v1/replication", "/v1/replication/",
		"GET /v1/stats", "GET /metrics", "GET /v1/metrics", "GET /healthz",
	} {
		s.mux.Handle(p, shardH)
	}
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// edgeJSON is a faulty link named by processor labels.
type edgeJSON struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// faultsJSON names failed components by their processor labels.
type faultsJSON struct {
	Topology   string     `json:"topology"`
	NodeFaults []string   `json:"node_faults,omitempty"`
	EdgeFaults []edgeJSON `json:"edge_faults,omitempty"`
}

// resolve parses the topology spec and the labeled fault set.
func (f *faultsJSON) resolve() (topology.RingEmbedder, topology.FaultSet, error) {
	net, err := topology.FromSpec(f.Topology)
	if err != nil {
		return nil, topology.FaultSet{}, err
	}
	edges := make([][2]string, len(f.EdgeFaults))
	for i, e := range f.EdgeFaults {
		edges[i] = [2]string{e.From, e.To}
	}
	fs, err := topology.ParseFaults(net, f.NodeFaults, edges)
	if err != nil {
		return nil, topology.FaultSet{}, err
	}
	return net, fs, nil
}

// handleEmbed answers {"ring":[labels…],"stats":{…}}, the ring written
// label by label through session.WriteRing.
func (s *server) handleEmbed(w http.ResponseWriter, r *http.Request) {
	var req faultsJSON
	if !decode(w, r, &req) {
		return
	}
	net, fs, err := req.resolve()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.eng.EmbedRing(r.Context(), engine.Request{Network: net, Faults: fs})
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, err)
		return
	}
	stats, err := json.Marshal(res.Stats)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	tail := append(append([]byte(`,"stats":`), stats...), "}\n"...)
	session.WriteRing(w, http.StatusOK, []byte(`{"ring":`), net, res.Ring, tail)
}

type verifyRequest struct {
	faultsJSON
	Ring session.Labels `json:"ring"`
}

type verifyResponse struct {
	Valid       bool `json:"valid"`
	Hamiltonian bool `json:"hamiltonian"`
}

func (s *server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req verifyRequest
	if !decode(w, r, &req) {
		return
	}
	net, fs, err := req.resolve()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ring := make([]int, len(req.Ring))
	for i, label := range req.Ring {
		if ring[i], err = net.Parse(label); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
	}
	writeJSON(w, verifyResponse{
		Valid:       topology.VerifyRing(net, ring, fs),
		Hamiltonian: topology.VerifyHamiltonian(net, ring, fs),
	})
}

type disjointCyclesRequest struct {
	Topology  string `json:"topology"`
	MaxCycles int    `json:"max_cycles,omitempty"` // 0 = all
}

type disjointCyclesResponse struct {
	Count  int               `json:"count"`
	Length int               `json:"length"`
	Cycles []json.RawMessage `json:"cycles"` // label arrays from session.AppendLabels
}

func (s *server) handleDisjointCycles(w http.ResponseWriter, r *http.Request) {
	var req disjointCyclesRequest
	if !decode(w, r, &req) {
		return
	}
	net, err := topology.FromSpec(req.Topology)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	fam, ok := net.(topology.CycleFamily)
	if !ok {
		httpError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("topology %s carries no disjoint Hamiltonian cycle family", net.Name()))
		return
	}
	cycles, err := fam.DisjointCycles()
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	resp := disjointCyclesResponse{Count: len(cycles)}
	if len(cycles) > 0 {
		resp.Length = len(cycles[0])
	}
	limit := len(cycles)
	if req.MaxCycles > 0 && req.MaxCycles < limit {
		limit = req.MaxCycles
	}
	for _, c := range cycles[:limit] {
		resp.Cycles = append(resp.Cycles, session.AppendLabels(nil, net, c))
	}
	writeJSON(w, resp)
}

type broadcastRequest struct {
	Topology    string `json:"topology"`
	MessageSize int    `json:"message_size"`
	Rings       int    `json:"rings,omitempty"` // 0 = the whole disjoint family
}

type broadcastResponse struct {
	Rings       int `json:"rings"`
	Steps       int `json:"steps"`
	TimeUnits   int `json:"time_units"`
	MaxLinkLoad int `json:"max_link_load"`
}

func (s *server) handleBroadcast(w http.ResponseWriter, r *http.Request) {
	var req broadcastRequest
	if !decode(w, r, &req) {
		return
	}
	net, err := topology.FromSpec(req.Topology)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	fam, ok := net.(topology.CycleFamily)
	if !ok {
		httpError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("topology %s carries no disjoint Hamiltonian cycle family", net.Name()))
		return
	}
	cycles, err := fam.DisjointCycles()
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if req.Rings > 0 && req.Rings < len(cycles) {
		cycles = cycles[:req.Rings]
	}
	res, err := broadcast.Run(net.Nodes(), cycles, req.MessageSize)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, broadcastResponse{
		Rings:       res.Rings,
		Steps:       res.Steps,
		TimeUnits:   res.TimeUnits,
		MaxLinkLoad: res.MaxLinkLoad,
	})
}

func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
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

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
