package repair

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"debruijnring/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/ffc_snapshots.golden")

// snapshotStream drives a seeded stream of node faults, node heals,
// link faults and link heals through one ffcPatcher, re-embedding on
// every Unsupported exit as a session does, and returns one line per
// step: the operation, its outcome and the SHA-256 of the patcher's
// Snapshot JSON afterwards.
func snapshotStream(t *testing.T, d, n int, seed int64, steps int) []string {
	t.Helper()
	net, err := topology.NewDeBruijn(d, n)
	if err != nil {
		t.Fatal(err)
	}
	p := newFFCPatcher(net)
	if _, _, err := p.Embed(topology.FaultSet{}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	size := net.Nodes()
	var nodes []int
	var edges []topology.Edge
	faults := func() topology.FaultSet {
		return topology.FaultSet{Nodes: slices.Clone(nodes), Edges: slices.Clone(edges)}.Canonical()
	}
	var lines []string
	for step := 0; step < steps; step++ {
		var op string
		var out Outcome
		prevNodes, prevEdges := slices.Clone(nodes), slices.Clone(edges)
		switch r := rng.Float64(); {
		case r < 0.45 && len(nodes) < min(n, 4):
			x := rng.Intn(size)
			if slices.Contains(nodes, x) {
				continue
			}
			nodes = append(nodes, x)
			op = fmt.Sprintf("+n%d", x)
			_, out = p.Patch(topology.NodeFaults(x))
		case r < 0.7 && len(nodes) > 0:
			i := rng.Intn(len(nodes))
			x := nodes[i]
			nodes = slices.Delete(nodes, i, i+1)
			op = fmt.Sprintf("-n%d", x)
			_, out = p.Unpatch(topology.NodeFaults(x))
		case r < 0.88 && len(edges) < 3:
			x := rng.Intn(size)
			e := topology.Edge{From: x, To: (x*d + rng.Intn(d)) % size}
			if e.From == e.To || slices.Contains(edges, e) {
				continue
			}
			edges = append(edges, e)
			op = fmt.Sprintf("+e%d-%d", e.From, e.To)
			_, out = p.Patch(topology.FaultSet{Edges: []topology.Edge{e}})
		case len(edges) > 0:
			i := rng.Intn(len(edges))
			e := edges[i]
			edges = slices.Delete(edges, i, i+1)
			op = fmt.Sprintf("-e%d-%d", e.From, e.To)
			_, out = p.Unpatch(topology.FaultSet{Edges: []topology.Edge{e}})
		default:
			continue
		}
		res := out.String()
		if out == Unsupported {
			res += "/embed"
			if _, _, err := p.Embed(faults()); err != nil {
				// The embedder cannot serve this set: drop the batch and
				// re-synchronize on the previous one, or on no faults when
				// the structural embed cannot serve that either.
				res += "/rejected"
				nodes, edges = prevNodes, prevEdges
				if _, _, err := p.Embed(faults()); err != nil {
					res += "/reset"
					nodes, edges = nil, nil
					if _, _, err := p.Embed(faults()); err != nil {
						t.Fatalf("step %d: fault-free embed: %v", step, err)
					}
				}
			}
		}
		var snap []byte // a stale tier snapshots nothing
		if st := p.snapshot(); st != nil {
			var err error
			if snap, err = json.Marshal(st); err != nil {
				t.Fatal(err)
			}
		}
		lines = append(lines, fmt.Sprintf("B(%d,%d) %d %s %s %x", d, n, step, op, res, sha256.Sum256(snap)))
	}
	return lines
}

// TestFFCSnapshotGolden pins the patcher's Snapshot JSON byte for byte
// across seeded patch/unpatch/link-fault streams on B(2,8) and B(3,4).
// The golden was recorded when the Step-3 overrides lived in a map whose
// keys Snapshot sorted; the dense successor table must emit exactly the
// same bytes, since session snapshots embed them.
func TestFFCSnapshotGolden(t *testing.T) {
	var got []string
	for _, tc := range []struct {
		d, n int
		seed int64
	}{{2, 8, 11}, {3, 4, 12}} {
		got = append(got, snapshotStream(t, tc.d, tc.n, tc.seed, 160)...)
	}
	// The stream must exercise every patcher exit, or the golden pins
	// less than it claims.
	for _, want := range []string{" patched ", " reordered ", " readmitted ", " noop ", " unsupported/embed "} {
		if !slices.ContainsFunc(got, func(l string) bool { return strings.Contains(l, want) }) {
			t.Errorf("stream never produced outcome %q", strings.TrimSpace(want))
		}
	}
	path := filepath.Join("testdata", "ffc_snapshots.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("stream has %d steps, golden %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d diverges from the golden:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
