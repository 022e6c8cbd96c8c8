package fleet

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"debruijnring/session"
	"debruijnring/topology"
)

// TestStatsGolden pins GET /v1/stats on a replicating shard byte for
// byte.  The script is a committed session fixture journal — a seeded
// B(2,8) stream covering every (direction, tier) repair outcome — fed
// through the shard's sessions, with the standby failing the append of
// the last event so the payload carries exactly one replica error.  No
// one-shot embeds run, so the engine's cache and latency fields are all
// zero and the payload is deterministic.
func TestStatsGolden(t *testing.T) {
	const fixture = "b28-seed107"
	st, err := session.NewDirStore(filepath.Join("..", "session", "testdata", "journals")).Load(fixture)
	if err != nil {
		t.Fatal(err)
	}
	standby, err := NewShard(ShardConfig{JournalDir: t.TempDir(), Standby: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyBackend{inner: standby.Handler()}
	sts := httptest.NewServer(flaky)
	primary, err := NewShard(ShardConfig{JournalDir: t.TempDir(), ReplicateTo: sts.URL})
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(primary.Handler())
	t.Cleanup(func() {
		pts.Close()
		primary.Close()
		sts.Close()
		standby.Close()
	})

	created := st[0]
	sess, err := primary.Sessions.Create(fixture, created.Spec, topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	last := len(st) - 1
	for st[last].Kind != "fault" && st[last].Kind != "heal" {
		last--
	}
	for i, ev := range st {
		if i == last {
			flaky.down.Store(true)
		}
		switch ev.Kind {
		case "fault":
			sess.AddFaults(batchOf(ev.AddNodes, ev.AddEdges))
		case "heal":
			sess.RemoveFaults(batchOf(ev.RemoveNodes, ev.RemoveEdges))
		}
	}

	resp, err := http.Get(pts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want, err := os.ReadFile(filepath.Join("testdata", "v1_stats.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("GET /v1/stats\n got %s\nwant %s", got, want)
	}
}

func batchOf(nodes []int, edges [][2]int) topology.FaultSet {
	f := topology.FaultSet{Nodes: nodes}
	for _, e := range edges {
		f.Edges = append(f.Edges, topology.Edge{From: e[0], To: e[1]})
	}
	return f
}
