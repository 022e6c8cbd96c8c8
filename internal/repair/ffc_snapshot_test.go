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

var updateGolden = flag.Bool("update", false, "rewrite testdata/ffc_snapshots_v5.golden")

// fullState is the tier's snapshot in the form journal v4 wrote it, the
// whole tree and every override, read off the overlays node by node.
func fullState(p *ffcPatcher, f topology.FaultSet) *FFCState {
	st := p.snapshot(f)
	if st == nil {
		return nil
	}
	st.Diff = nil
	for x := 0; x < p.g.Size; x++ {
		if w := p.labelOf(x); w >= 0 {
			st.Tree = append(st.Tree, [3]int{x, int(p.centreOf(int(w))), int(w)})
		}
		if in := p.succOf(x); in >= 0 {
			st.Overrides = append(st.Overrides, [2]int{x, int(in)})
		}
	}
	return st
}

// snapshotStream drives a seeded stream of node faults, node heals,
// link faults and link heals through one ffcPatcher, re-embedding on
// every Unsupported exit as a session does, and returns one line per
// step in each snapshot form: the operation, its outcome and the
// SHA-256 of the snapshot JSON afterwards, whole (v4) and as a diff
// over the base (v5).  Every step's v5 snapshot, and its v4 form, must
// restore on a fresh patcher to the same state.
func snapshotStream(t *testing.T, d, n int, seed int64, steps int) (v4, v5 []string) {
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
	for step := 0; step < steps; step++ {
		var op string
		var out Outcome
		prevNodes, prevEdges := slices.Clone(nodes), slices.Clone(edges)
		prev := faults()
		switch r := rng.Float64(); {
		case r < 0.45 && len(nodes) < min(n, 4):
			x := rng.Intn(size)
			if slices.Contains(nodes, x) {
				continue
			}
			nodes = append(nodes, x)
			op = fmt.Sprintf("+n%d", x)
			_, out = p.Patch(prev, topology.NodeFaults(x))
		case r < 0.7 && len(nodes) > 0:
			i := rng.Intn(len(nodes))
			x := nodes[i]
			nodes = slices.Delete(nodes, i, i+1)
			op = fmt.Sprintf("-n%d", x)
			_, out = p.Unpatch(prev, topology.NodeFaults(x))
		case r < 0.88 && len(edges) < 3:
			x := rng.Intn(size)
			e := topology.Edge{From: x, To: (x*d + rng.Intn(d)) % size}
			if e.From == e.To || slices.Contains(edges, e) {
				continue
			}
			edges = append(edges, e)
			op = fmt.Sprintf("+e%d-%d", e.From, e.To)
			_, out = p.Patch(prev, topology.EdgeFaults(e))
		case len(edges) > 0:
			i := rng.Intn(len(edges))
			e := edges[i]
			edges = slices.Delete(edges, i, i+1)
			op = fmt.Sprintf("-e%d-%d", e.From, e.To)
			_, out = p.Unpatch(prev, topology.EdgeFaults(e))
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
		full, diff := fullState(p, faults()), p.snapshot(faults())
		var whole, snap []byte // a stale tier snapshots nothing
		if diff != nil {
			whole, snap = mustJSON(t, full), mustJSON(t, diff)
			var back FFCState
			if err := json.Unmarshal(snap, &back); err != nil {
				t.Fatal(err)
			}
			ring, _ := p.walk()
			for _, st := range []*FFCState{&back, full} {
				q := newFFCPatcher(net)
				got, err := q.restore(st, nil, faults())
				if err != nil || !slices.Equal(got, ring) || !slices.Equal(mustJSON(t, fullState(q, faults())), whole) {
					t.Fatalf("B(%d,%d) step %d: restoring the %s snapshot: %v", d, n, step, map[bool]string{true: "diff", false: "whole"}[st.Diff != nil], err)
				}
			}
		}
		prefix := fmt.Sprintf("B(%d,%d) %d %s %s", d, n, step, op, res)
		v4 = append(v4, fmt.Sprintf("%s %x", prefix, sha256.Sum256(whole)))
		v5 = append(v5, fmt.Sprintf("%s %x", prefix, sha256.Sum256(snap)))
	}
	return v4, v5
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFFCSnapshotGolden pins the patcher's Snapshot JSON byte for byte
// across seeded patch/unpatch/link-fault streams on B(2,8), B(3,4) and
// B(4,3); B(4,3)'s stars have up to three children, so their member
// order is pinned too.
// ffc_snapshots.golden was recorded when the Step-3 overrides lived in a
// map whose keys Snapshot sorted, and the tier's state in the whole form
// of journal v4; the overlays read back node by node must give exactly
// the same bytes.  ffc_snapshots_v5.golden pins the journal v5 form, the
// diff over the base, on the same streams.
func TestFFCSnapshotGolden(t *testing.T) {
	var got, gotV5 []string
	for _, tc := range []struct {
		d, n int
		seed int64
	}{{2, 8, 11}, {3, 4, 12}, {4, 3, 13}} {
		v4, v5 := snapshotStream(t, tc.d, tc.n, tc.seed, 160)
		got, gotV5 = append(got, v4...), append(gotV5, v5...)
	}
	// The stream must exercise every patcher exit, or the golden pins
	// less than it claims.
	for _, want := range []string{" patched ", " reordered ", " readmitted ", " noop ", " unsupported/embed "} {
		if !slices.ContainsFunc(got, func(l string) bool { return strings.Contains(l, want) }) {
			t.Errorf("stream never produced outcome %q", strings.TrimSpace(want))
		}
	}
	if *updateGolden {
		path := filepath.Join("testdata", "ffc_snapshots_v5.golden")
		if err := os.WriteFile(path, []byte(strings.Join(gotV5, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	compareGolden(t, "ffc_snapshots.golden", got)
	compareGolden(t, "ffc_snapshots_v5.golden", gotV5)
}

// compareGolden checks got line by line against testdata/name.
func compareGolden(t *testing.T, name string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Fatalf("%s: stream has %d steps, golden %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: step %d diverges from the golden:\n got  %s\n want %s", name, i, got[i], want[i])
		}
	}
}

// TestFFCRestoreRejectsTamperedDiff restores a B(3,4) tier state whose
// v5 diff re-hangs necklaces and lists a star closed out of ascending
// order, then the same diff tampered in each way restore must refuse,
// checking each is refused for its own reason.
func TestFFCRestoreRejectsTamperedDiff(t *testing.T) {
	net, err := topology.NewDeBruijn(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := newFFCPatcher(net)
	if _, _, err := p.Embed(topology.FaultSet{}); err != nil {
		t.Fatal(err)
	}
	// Fault necklaces until one re-hangs another.
	var faults topology.FaultSet
	for x := 1; !slices.ContainsFunc(p.treeDiff(), func(e [3]int) bool { return e[2] >= 0 }); x++ {
		f := topology.NodeFaults(x)
		if _, o := p.Patch(faults, f); o != Patched {
			t.Fatalf("node fault %d: %v", x, o)
		}
		faults = faults.Union(f)
	}
	// Fault override hops of the ring until one star is reordered.
	for x := 0; x < net.Nodes() && p.reordered.Len() == 0; x++ {
		y := p.succOf(x)
		if y < 0 || !p.member(p.rep(x)) {
			continue
		}
		e := topology.EdgeFaults(topology.Edge{From: x, To: int(y)})
		if _, o := p.Patch(faults, e); o == Unsupported {
			// Resynchronize without the link, as a session whose re-embed
			// rejected it would.
			if _, _, err := p.Embed(faults); err != nil {
				t.Fatal(err)
			}
			continue
		}
		faults = faults.Union(e)
	}
	st := p.snapshot(faults)
	if st == nil || len(st.Diff.Overrides) == 0 || !slices.ContainsFunc(st.Diff.Tree, func(e [3]int) bool { return e[2] >= 0 }) {
		t.Fatalf("no state with a re-hung necklace and a reordered star: %+v", st)
	}
	ring, _ := p.walk()
	if got, err := newFFCPatcher(net).restore(st, ring, faults); err != nil || !slices.Equal(got, ring) {
		t.Fatalf("clean restore: %v", err)
	}
	rehung := slices.IndexFunc(st.Diff.Tree, func(e [3]int) bool { return e[2] >= 0 })
	for _, tc := range []struct {
		name, want string
		tamper     func(st *FFCState)
	}{
		{"slot out of range", "override [81 ", func(st *FFCState) { st.Diff.Overrides[0][0] = 81 }},
		{"repeated slot", "repeated", func(st *FFCState) {
			st.Diff.Overrides = slices.Insert(st.Diff.Overrides, 0, st.Diff.Overrides[0])
		}},
		{"override target", "snapshot", func(st *FFCState) {
			o := &st.Diff.Overrides[0]
			o[1] = (o[1] + 1) % 81
		}},
		{"label with two centres", "two centres", func(st *FFCState) {
			e := st.Diff.Tree[rehung]
			c := 1
			for slices.ContainsFunc(st.Diff.Tree, func(f [3]int) bool { return f[0] == c }) {
				c++
			}
			i, _ := slices.BinarySearchFunc(st.Diff.Tree, c, func(f [3]int, c int) int { return f[0] - c })
			st.Diff.Tree = slices.Insert(st.Diff.Tree, i, [3]int{c, (e[1] + 1) % 81, e[2]})
		}},
		{"necklace hung twice", "twice", func(st *FFCState) {
			e := st.Diff.Tree[rehung]
			st.Diff.Tree = slices.Insert(st.Diff.Tree, rehung+1, [3]int{e[0], e[1], (e[2] + 1) % 27})
		}},
		{"necklaces out of order", "not in necklace order", func(st *FFCState) {
			st.Diff.Tree[0], st.Diff.Tree[1] = st.Diff.Tree[1], st.Diff.Tree[0]
		}},
		{"label out of range", "label out of range", func(st *FFCState) { st.Diff.Tree[rehung][2] = 27 }},
		{"unknown version", "unknown format version 6", func(st *FFCState) { st.Diff.V = 6 }},
		{"diff and whole tree", "both", func(st *FFCState) { st.Tree = [][3]int{{1, 0, 0}} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var bad FFCState
			if err := json.Unmarshal(mustJSON(t, st), &bad); err != nil {
				t.Fatal(err)
			}
			tc.tamper(&bad)
			_, err := newFFCPatcher(net).restore(&bad, ring, faults)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore error %v, want one naming %q", err, tc.want)
			}
		})
	}
}
