package session

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"debruijnring/topology"
)

var updateStateBodies = flag.Bool("update", false, "rewrite testdata/state_bodies.golden")

const stateBodiesGolden = "testdata/state_bodies.golden"

// goldenSession is one session the state-body golden records: created
// over HTTP, then driven through drive (which may be nil).
type goldenSession struct {
	name   string
	create string // POST /v1/sessions body, creating name
	drive  func(t *testing.T, s *Session)
}

func addFaults(f topology.FaultSet) func(*testing.T, *Session) {
	return func(t *testing.T, s *Session) {
		t.Helper()
		if _, err := s.AddFaults(f); err != nil {
			t.Fatal(err)
		}
	}
}

// faultRoot faults the ring's head, the FFC root: the structural tier
// declines it and the splice tier cuts it out, so the session's ring is
// one the cold embed does not produce.
func faultRoot(t *testing.T, s *Session) {
	t.Helper()
	ev, err := s.AddFaults(topology.NodeFaults(s.Ring()[0]))
	if err != nil || ev.Repair != "splice" {
		t.Fatalf("root fault: %+v, %v; want a splice repair", ev, err)
	}
}

func goldenSessions() []goldenSession {
	return []goldenSession{
		{name: "db-mixed", create: `{"name":"db-mixed","topology":"debruijn(3,3)","node_faults":["020"]}`,
			drive: addFaults(topology.EdgeFaults(topology.Edge{From: 5, To: 16}))},
		{name: "db-clean", create: `{"name":"db-clean","topology":"debruijn(2,4)"}`},
		{name: "db-splice", create: `{"name":"db-splice","topology":"debruijn(2,6)"}`, drive: faultRoot},
		{name: "kautz", create: `{"name":"kautz","topology":"kautz(2,3)","edge_faults":[{"from":"010","to":"101"}]}`},
		{name: "butterfly", create: `{"name":"butterfly","topology":"butterfly(3,2)","edge_faults":[{"from":"(0,00)","to":"(1,10)"}]}`},
		{name: "cube", create: `{"name":"cube","topology":"hypercube(4)","node_faults":["0110"]}`,
			drive: addFaults(topology.NodeFaults(9))},
		{name: "se", create: `{"name":"se","topology":"shuffleexchange(2,4)","node_faults":["0011"]}`},
	}
}

// recordStateBodies serves every golden session through Handler and
// returns the transcript: each request line followed by the response
// body exactly as sent.
func recordStateBodies(t *testing.T) []byte {
	t.Helper()
	m := NewManager(nil, Options{})
	defer m.Close()
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()
	var out bytes.Buffer
	fetch := func(method, path, body string, want int) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != want {
			t.Fatalf("%s %s: status %d (%v): %s", method, path, resp.StatusCode, err, b)
		}
		fmt.Fprintln(&out, strings.TrimSpace("### "+method+" "+path+" "+body))
		out.Write(b)
	}
	for _, g := range goldenSessions() {
		fetch(http.MethodPost, "/v1/sessions", g.create, http.StatusCreated)
		if g.drive != nil {
			s, _ := m.Get(g.name)
			g.drive(t, s)
		}
		fetch(http.MethodGet, "/v1/sessions/"+g.name, "", http.StatusOK)
		fetch(http.MethodGet, "/v1/sessions/"+g.name+"?ring=false", "", http.StatusOK)
	}
	return out.Bytes()
}

// TestStateBodiesGolden pins every state body — the POST create
// response, GET with the ring and GET with ?ring=false — byte for byte
// across all five topologies, node and link faults, a spliced ring and
// an empty fault set.  Run with -update to re-record.
func TestStateBodiesGolden(t *testing.T) {
	got := recordStateBodies(t)
	if *updateStateBodies {
		if err := os.WriteFile(filepath.FromSlash(stateBodiesGolden), got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(stateBodiesGolden))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("state bodies diverge from %s at line %d:\n got %.300s\nwant %.300s", stateBodiesGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("state bodies: %d lines, golden has %d", len(gl), len(wl))
	}
}

// stateJSONOracle is the reflection rendering writeState replaced, kept here
// as its oracle: the full StateJSON, ring labels built one string each.
func stateJSONOracle(s *Session, includeRing bool) StateJSON {
	st := s.StateSnapshot(includeRing)
	out := StateJSON{
		Name:       st.Name,
		Topology:   st.Spec,
		Seq:        st.Seq,
		RingLength: st.RingLength,
		LowerBound: st.LowerBound,
		RingHash:   st.RingHash,
		Stats:      st.Stats,
	}
	net := s.Network()
	if includeRing {
		out.Ring = make(Labels, len(st.Ring))
		for i, v := range st.Ring {
			out.Ring[i] = net.Label(v)
		}
	}
	for _, v := range st.FaultNodes {
		out.NodeFaults = append(out.NodeFaults, net.Label(v))
	}
	for _, e := range st.FaultEdges {
		out.EdgeFaults = append(out.EdgeFaults, EdgeJSON{From: net.Label(e[0]), To: net.Label(e[1])})
	}
	return out
}

// TestWriteStateMatchesEncoder drives seeded fault/heal streams on
// several topologies and, after every event, compares writeState's body
// (with and without the ring, which is then omitted) as streamed, write
// by write, against json.NewEncoder over the oracle StateJSON, and its
// Content-Length against the body.  The B(2,13) ring spans several
// chunks, and butterfly labels are counted rather than shaped.
func TestWriteStateMatchesEncoder(t *testing.T) {
	m := NewManager(nil, Options{})
	defer m.Close()
	for k, spec := range []string{"debruijn(2,8)", "debruijn(3,4)", "debruijn(5,3)", "debruijn(2,13)", "shuffleexchange(2,6)", "hypercube(6)", "butterfly(3,2)"} {
		s, err := m.Create(fmt.Sprintf("diff-%d", k), spec, topology.FaultSet{})
		if err != nil {
			t.Fatal(err)
		}
		net := s.Network()
		_, linkFaults := net.(*topology.DeBruijn)
		rng := rand.New(rand.NewSource(int64(k + 1)))
		for step := 0; step < 24; step++ {
			f := s.Faults()
			switch live := len(f.Nodes) + len(f.Edges); {
			case live > 0 && rng.Intn(3) == 0:
				if i := rng.Intn(live); i < len(f.Nodes) {
					s.RemoveFaults(topology.NodeFaults(f.Nodes[i]))
				} else {
					s.RemoveFaults(topology.EdgeFaults(f.Edges[i-len(f.Nodes)]))
				}
			case linkFaults && rng.Intn(2) == 0:
				ring := s.Ring()
				j := rng.Intn(len(ring))
				s.AddFaults(topology.EdgeFaults(topology.Edge{From: ring[j], To: ring[(j+1)%len(ring)]}))
			case len(f.Nodes) < 2:
				s.AddFaults(topology.NodeFaults(rng.Intn(net.Nodes())))
			}
			for _, includeRing := range []bool{true, false} {
				w := newRecordWriter()
				writeState(w, http.StatusOK, s, includeRing)
				var want bytes.Buffer
				if err := json.NewEncoder(&want).Encode(stateJSONOracle(s, includeRing)); err != nil {
					t.Fatal(err)
				}
				checkRingBody(t, fmt.Sprintf("%s step %d ring=%v", spec, step, includeRing), w, http.StatusOK, want.Bytes(), nil, nil)
			}
		}
	}
}

// discardWriter is a ResponseWriter dropping the body.
type discardWriter struct{ header http.Header }

func (w discardWriter) Header() http.Header         { return w.header }
func (w discardWriter) WriteHeader(int)             {}
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestWriteStateAllocsFlat: a state body costs no allocation per label,
// and no buffer sized by the ring but the int32 copy that leaves the
// session lock.  B(2,12) has 3,840 more nodes than B(2,8); the few
// allocations of slack absorb the sync.Pool drops of race-detector
// builds.  A B(2,16) GET allocates at most its int32 ring copy, one
// chunk (a pool drop) and 16 KiB for the summary.
func TestWriteStateAllocsFlat(t *testing.T) {
	m := NewManager(nil, Options{})
	defer m.Close()
	var allocs []float64
	for _, n := range []int{8, 12} {
		s, err := m.Create(fmt.Sprintf("allocs-%d", n), fmt.Sprintf("debruijn(2,%d)", n), topology.NodeFaults(3))
		if err != nil {
			t.Fatal(err)
		}
		w := discardWriter{http.Header{}}
		allocs = append(allocs, testing.AllocsPerRun(10, func() { writeState(w, http.StatusOK, s, true) }))
	}
	if allocs[1] > allocs[0]+8 {
		t.Errorf("writeState allocations grow with the ring: %v at B(2,8), %v at B(2,12)", allocs[0], allocs[1])
	}

	s, err := m.Create("bytes-16", "debruijn(2,16)", topology.NodeFaults(3))
	if err != nil {
		t.Fatal(err)
	}
	w := discardWriter{http.Header{}}
	writeState(w, http.StatusOK, s, true) // fill the chunk pool
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		writeState(w, http.StatusOK, s, true)
	}
	runtime.ReadMemStats(&after)
	perRead := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(4*s.StateSnapshot(false).RingLength + chunkSize + 16<<10); perRead > limit {
		t.Errorf("a B(2,16) state body allocates %d bytes, past the int32 ring copy and one chunk (%d)", perRead, limit)
	}
}
