package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"debruijnring/internal/repair"
	"debruijnring/session"
)

// plainEvent is session.Event without its methods, encoded by
// reflection: the reference for the hand-built replication body.
type plainEvent session.Event

// TestReplicaAppendBody pins ReplicaClient.Append's body to
// json.Marshal's reflective encoding of the batch, HTML escaping
// included, for a single event and a full catch-up batch, and the
// replica's answer to writeReplicaJSON's.
func TestReplicaAppendBody(t *testing.T) {
	var mu sync.Mutex // the handler runs on the server's goroutines
	var bodies [][]byte
	var answers []string
	rp := NewReplica(session.NewDirStore(t.TempDir()), nil, &EpochGate{}, t.Logf)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		bodies = append(bodies, body)
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		rp.Handler().ServeHTTP(rec, r)
		mu.Lock()
		answers = append(answers, rec.Body.String())
		mu.Unlock()
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer ts.Close()
	defer rp.Close()

	at := time.Date(2026, 10, 19, 23, 14, 5, 123456789, time.UTC)
	batch := []session.Event{{Seq: 0, Time: at, Kind: "created", Name: "r-1", Spec: "debruijn(2,6)", RepairVer: 5}}
	for i := 1; i < catchupBatch; i++ {
		ev := session.Event{
			Seq: uint64(i), Time: at.Add(time.Duration(i) * time.Millisecond), Kind: "fault",
			AddNodes: []int{i}, Repair: "local", RingLength: 64 - i%7, FaultCount: 1, RingHash: "9a3f",
			Tiers:   []session.TierTrace{{Tier: "ffc", Outcome: "ok", Touched: 3, Elapsed: 1500}},
			Removed: []int{i, i + 1}, Added: []int{i + 2},
		}
		switch i % 4 {
		case 1:
			ev.Error = "f > n & <ring>\u2028déjà"
		case 2:
			ev.Kind, ev.Patcher, ev.Stats = "snapshot", &repair.State{Tier: "splice", State: &repair.TierState{SpliceState: &repair.SpliceState{}}}, &session.Stats{Events: int64(i)}
		}
		batch = append(batch, ev)
	}
	c := &ReplicaClient{Base: ts.URL}
	for _, evs := range [][]session.Event{batch[:1], batch} {
		if err := c.Append("r-1", evs); err != nil {
			t.Fatal(err)
		}
		plain := make([]plainEvent, len(evs))
		for i := range evs {
			plain[i] = plainEvent(evs[i])
		}
		want, err := json.Marshal(struct {
			Name   string       `json:"name"`
			Events []plainEvent `json:"events"`
		}{"r-1", plain})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		got, answer := bodies[len(bodies)-1], answers[len(answers)-1]
		mu.Unlock()
		if !bytes.Equal(got, want) {
			t.Fatalf("append body of %d events differs from json.Marshal:\n got %.300s\nwant %.300s", len(evs), got, want)
		}
		rec := httptest.NewRecorder()
		writeReplicaJSON(rec, struct {
			Appended int `json:"appended"`
		}{len(evs)})
		if answer != rec.Body.String() {
			t.Fatalf("append answer %q, want %q", answer, rec.Body.String())
		}
	}
	for _, bad := range []struct {
		name string
		evs  []session.Event
	}{{"no/slash", batch[:1]}, {"r-1", nil}} {
		if err := c.Append(bad.name, bad.evs); err == nil {
			t.Fatalf("Append(%q, %d events) succeeded", bad.name, len(bad.evs))
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 2 {
		t.Fatalf("%d requests reached the replica, want 2", len(bodies))
	}
}
