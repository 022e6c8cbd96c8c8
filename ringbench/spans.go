package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// idHeader carries the benchmark's request id from the load generator
// through the router's reverse proxy to the shard, so the spans one
// request leaves on each listener can be matched.
const idHeader = "X-Bench-Request-Id"

// span is one timed call into a layer.  Spans of one HTTP request share
// ID; spans of direct layer calls carry the index of the event they
// belong to.
type span struct {
	ID    uint64 `json:"id"`
	Layer string `json:"layer"`
	Kind  string `json:"kind"`
	Start int64  `json:"start_ns"` // since the recorder's epoch
	End   int64  `json:"end_ns"`
	Bytes int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory while on; they are written out once the
// run ends.  Off, record is a single atomic load.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now is the monotonic time since the recorder's epoch.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) record(s span) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// since returns the spans recorded after the first i, and the count so
// far.
func (r *recorder) since(i int) ([]span, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[i:]...), len(r.spans)
}

// middleware times every request the listener named layer serves.
func (r *recorder) middleware(layer string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			next.ServeHTTP(w, req)
			return
		}
		start := r.now()
		next.ServeHTTP(w, req)
		id, _ := strconv.ParseUint(req.Header.Get(idHeader), 10, 64)
		r.record(span{ID: id, Layer: layer, Kind: requestKind(req), Start: start, End: r.now(), Bytes: req.ContentLength})
	})
}

// requestKind classifies a request by the operation it carries.
func requestKind(req *http.Request) string {
	switch {
	case strings.HasPrefix(req.URL.Path, "/v1/replica/append"):
		return "append"
	case strings.HasSuffix(req.URL.Path, "/faults"):
		return "event"
	case req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/sessions/"):
		return "read"
	}
	return "other"
}

// selfTime is parent's duration minus the part of it that children
// cover (overlapping children are counted once; parts outside parent are
// ignored).
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return parent.dur() - covered
}

// byID indexes spans of one layer by request id.
func byID(spans []span, layer string) map[uint64][]span {
	m := make(map[uint64][]span)
	for _, s := range spans {
		if s.Layer == layer && s.ID != 0 {
			m[s.ID] = append(m[s.ID], s)
		}
	}
	return m
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
