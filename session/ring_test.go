package session

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"debruijnring/internal/repair"
	"debruijnring/topology"
)

// deltaStream drives a seeded stream of node faults, node heals, ring
// link faults and link heals through two patchers in lockstep: ref, the
// plain repair.For chain whose FFC results are walked off the successor
// rule, and rp, the repair.ForRing chain whose FFC results arrive as
// deltas applied to lr.  visit sees every event whose rp result was a
// Delta, with the ring before it.  Live node faults stay within the
// session tolerance of n.
func deltaStream(t *testing.T, d, n, events int, seed int64, visit func(old []int, d *repair.Delta, next, fresh topology.FaultSet, want []int)) (deltas int) {
	t.Helper()
	net, err := topology.NewDeBruijn(d, n)
	if err != nil {
		t.Fatal(err)
	}
	ref, rp := repair.For(net), repair.ForRing(net)
	ring, _, err := ref.Embed(topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rp.Embed(topology.FaultSet{}); err != nil {
		t.Fatal(err)
	}
	var lr liveRing
	lr.reset(net.Nodes(), ring)
	var faults topology.FaultSet
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < events; i++ {
		var batch topology.FaultSet
		heal := false
		switch c := rng.Intn(10); {
		case c < 3 && len(faults.Nodes) > 0:
			heal, batch = true, topology.NodeFaults(faults.Nodes[rng.Intn(len(faults.Nodes))])
		case c < 4 && len(faults.Edges) > 0:
			heal, batch = true, topology.EdgeFaults(faults.Edges[rng.Intn(len(faults.Edges))])
		case c < 6:
			j := rng.Intn(len(lr.seq))
			batch = topology.EdgeFaults(topology.Edge{From: int(lr.seq[j]), To: int(lr.seq[(j+1)%len(lr.seq)])})
		case len(faults.Nodes) < n:
			batch = topology.NodeFaults(int(lr.seq[rng.Intn(len(lr.seq))]))
		default:
			continue
		}
		var next, fresh topology.FaultSet
		var want []int
		var wantOut repair.Outcome
		var ch repair.Change
		var out repair.Outcome
		if heal {
			next = faults.Minus(batch)
			want, wantOut = ref.Unpatch(batch)
			ch, out = rp.UnpatchRing(lr.seq, faults, batch)
		} else {
			next, fresh = faults.Union(batch), batch.Minus(faults)
			if fresh.IsEmpty() {
				continue
			}
			want, wantOut = ref.Patch(fresh)
			ch, out = rp.PatchRing(lr.seq, faults, fresh)
		}
		if out != wantOut {
			t.Fatalf("B(%d,%d) event %d: ring path %v, plain path %v", d, n, i, out, wantOut)
		}
		switch {
		case out == repair.Noop:
		case out == repair.Unsupported:
			r, _, err := ref.Embed(next)
			if err != nil {
				continue // over tolerance: both keep their state
			}
			if _, _, err := rp.Embed(next); err != nil {
				t.Fatal(err)
			}
			lr.reset(net.Nodes(), r)
		case ch.Delta != nil:
			deltas++
			visit(lr.ints(), ch.Delta, next, fresh, want)
			if _, _, _, ok := lr.apply(net, ch.Delta, next, fresh, lowerBound(net, next)); !ok {
				t.Fatalf("B(%d,%d) event %d: apply rejected a %v delta", d, n, i, out)
			}
		default:
			if !slices.Equal(ch.Ring, want) {
				t.Fatalf("B(%d,%d) event %d: %v rings differ", d, n, i, out)
			}
			lr.reset(net.Nodes(), ch.Ring)
		}
		faults = next
	}
	return deltas
}

// lowerBound is the session's dⁿ − nf bound.
func lowerBound(net *topology.DeBruijn, f topology.FaultSet) int {
	return max(net.Nodes()-net.WordLen()*len(f.Nodes), 0)
}

// TestRingDeltaMatchesWalk is the differential test of the delta path:
// on every FFC-tier event of seeded fault/heal/link-fault streams, the
// ring apply builds equals the ring walked off the successor rule
// element for element, passes the full VerifyRing, and carries exactly
// the Removed/Added/DeltaTruncated that ringDiff.diff reports for the
// same pair of rings.
func TestRingDeltaMatchesWalk(t *testing.T) {
	for _, tc := range []struct{ d, n, events int }{{2, 8, 300}, {3, 4, 300}, {2, 12, 120}} {
		t.Run(fmt.Sprintf("B(%d,%d)", tc.d, tc.n), func(t *testing.T) {
			net, _ := topology.NewDeBruijn(tc.d, tc.n)
			var lr liveRing
			var diff ringDiff
			kinds := 0
			deltas := deltaStream(t, tc.d, tc.n, tc.events, 11, func(old []int, d *repair.Delta, next, fresh topology.FaultSet, want []int) {
				lr.reset(net.Nodes(), old)
				rem, add, trunc, ok := lr.apply(net, d, next, fresh, lowerBound(net, next))
				if !ok {
					t.Fatal("apply rejected a delta the walk accepts")
				}
				if !slices.Equal(lr.ints(), want) {
					t.Fatalf("applied ring differs from the walk:\n%v\n%v", lr.seq, want)
				}
				if !topology.VerifyRing(net, lr.ints(), next) {
					t.Fatal("applied ring fails VerifyRing")
				}
				wr, wa, wt := diff.diff(net.Nodes(), old, want)
				if !slices.Equal(rem, wr) || !slices.Equal(add, wa) || trunc != wt {
					t.Fatalf("delta (%v, %v, %v), ringDiff (%v, %v, %v)", rem, add, trunc, wr, wa, wt)
				}
				for i, v := range lr.seq {
					if lr.pos[v] != int32(i) {
						t.Fatalf("position index of %d is %d, want %d", v, lr.pos[v], i)
					}
				}
				if len(rem) > 0 || len(add) > 0 {
					kinds++
				}
			})
			if deltas < tc.events/4 || kinds == 0 {
				t.Fatalf("stream produced %d deltas (%d changing membership); too few to test", deltas, kinds)
			}
		})
	}
}

// cloneDelta deep-copies a patcher-owned delta so a test can corrupt it.
func cloneDelta(d *repair.Delta) *repair.Delta {
	return &repair.Delta{Start: d.Start, Length: d.Length,
		Nodes: slices.Clone(d.Nodes), Succ: slices.Clone(d.Succ),
		Leave: slices.Clone(d.Leave), Join: slices.Clone(d.Join)}
}

// TestRingApplyRejectsCorruptDeltas hand-corrupts real deltas and checks
// that apply rejects each one and leaves the ring, its index and its
// scratch untouched (the intact delta still applies afterwards).
func TestRingApplyRejectsCorruptDeltas(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 8)
	type corruption struct {
		name string
		// corrupt edits the delta (or the fault sets) against the old
		// ring and the ring the delta should produce; false means the
		// delta offers nothing to corrupt this way.
		corrupt func(d *repair.Delta, old, want []int, next, fresh *topology.FaultSet) bool
	}
	cases := []corruption{
		{"non-edge hop", func(d *repair.Delta, _, _ []int, _, _ *topology.FaultSet) bool {
			if len(d.Nodes) == 0 {
				return false
			}
			for s := range net.Nodes() {
				if !net.IsEdge(d.Nodes[0], s) {
					d.Succ[0] = s
					return true
				}
			}
			return false
		}},
		{"reused arc", func(d *repair.Delta, _, _ []int, _, _ *topology.FaultSet) bool {
			for i := range d.Nodes {
				for j := range d.Nodes {
					if i != j && d.Succ[i] != d.Succ[j] && net.IsEdge(d.Nodes[i], d.Succ[j]) {
						d.Succ[i] = d.Succ[j]
						return true
					}
				}
			}
			return false
		}},
		{"length one long", func(d *repair.Delta, _, _ []int, _, _ *topology.FaultSet) bool {
			d.Length++
			return true
		}},
		{"length one short", func(d *repair.Delta, _, _ []int, _, _ *topology.FaultSet) bool {
			d.Length--
			return true
		}},
		{"leaving node unlisted", func(d *repair.Delta, _, _ []int, _, _ *topology.FaultSet) bool {
			if len(d.Leave) == 0 {
				return false
			}
			d.Leave = d.Leave[1:]
			d.Length++
			return true
		}},
		{"newly faulted node on ring", func(d *repair.Delta, _, want []int, next, fresh *topology.FaultSet) bool {
			v := want[len(want)/2]
			*next = next.Union(topology.NodeFaults(v))
			*fresh = fresh.Union(topology.NodeFaults(v))
			return true
		}},
		{"newly faulted link on ring", func(d *repair.Delta, _, want []int, next, fresh *topology.FaultSet) bool {
			e := topology.EdgeFaults(topology.Edge{From: want[len(want)/2], To: want[len(want)/2+1]})
			*next, *fresh = next.Union(e), fresh.Union(e)
			return true
		}},
	}
	tried := make(map[string]int)
	deltaStream(t, 2, 8, 200, 5, func(old []int, d *repair.Delta, next, fresh topology.FaultSet, want []int) {
		var lr liveRing
		lr.reset(net.Nodes(), old)
		for _, tc := range cases {
			bad := cloneDelta(d)
			badNext, badFresh := next, fresh
			if !tc.corrupt(bad, old, want, &badNext, &badFresh) {
				continue
			}
			tried[tc.name]++
			if _, _, _, ok := lr.apply(net, bad, badNext, badFresh, lowerBound(net, next)); ok {
				t.Fatalf("%s: apply accepted the corrupt delta", tc.name)
			}
			if !slices.Equal(lr.ints(), old) {
				t.Fatalf("%s: rejected delta mutated the ring", tc.name)
			}
			for i, v := range lr.seq {
				if lr.pos[v] != int32(i) {
					t.Fatalf("%s: rejected delta mutated the position index", tc.name)
				}
			}
			for _, w := range lr.cuts {
				if w != 0 {
					t.Fatalf("%s: rejected delta left cut bits set", tc.name)
				}
			}
		}
		if _, _, _, ok := lr.apply(net, d, next, fresh, lowerBound(net, next)); !ok || !slices.Equal(lr.ints(), want) {
			t.Fatal("intact delta no longer applies after the rejections")
		}
	})
	for _, tc := range cases {
		if tried[tc.name] == 0 {
			t.Errorf("%s: no delta in the stream could be corrupted this way", tc.name)
		}
	}
}

// fnvRingHash is the hash/fnv formulation of ringHash, the reference
// for its byte-skipping fast path.
func fnvRingHash(ring []int) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range ring {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// TestRingHashMatchesFNV checks ringHash against hash/fnv on ids below
// 2⁸ (one nonzero byte), below 2¹⁶ (the fast path's limit), at and above
// 2¹⁶ (the per-byte fallback), and on mixed rings.
func TestRingHashMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	draw := func(lo, hi, k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = lo + rng.Intn(hi-lo)
		}
		return out
	}
	rings := map[string][]int{
		"empty":        nil,
		"[0,2^8)":      draw(0, 1<<8, 300),
		"[2^8,2^16)":   draw(1<<8, 1<<16, 300),
		">=2^16":       draw(1<<16, 1<<40, 300),
		"boundaries":   {0, 255, 256, 1<<16 - 1, 1 << 16, 1<<16 + 1, 1<<62 + 3},
		"mixed random": append(append(draw(0, 1<<8, 100), draw(1<<8, 1<<16, 100)...), draw(1<<16, 1<<32, 100)...),
	}
	rng.Shuffle(len(rings["mixed random"]), func(i, j int) {
		r := rings["mixed random"]
		r[i], r[j] = r[j], r[i]
	})
	for name, ring := range rings {
		if got, want := ringHash(ring), fnvRingHash(ring); got != want {
			t.Errorf("%s: ringHash %s, hash/fnv %s", name, got, want)
		}
	}
}

// TestRingApplyAllocs pins apply's allocation budget: pooled scratch
// throughout, so a steady-state delta allocates only the fresh Removed
// and Added slices an event retains.
func TestRingApplyAllocs(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 10)
	var lr liveRing
	checked := 0
	deltaStream(t, 2, 10, 60, 3, func(old []int, d *repair.Delta, next, fresh topology.FaultSet, _ []int) {
		want := 0.0
		if len(d.Leave) > 0 {
			want++
		}
		if len(d.Join) > 0 {
			want++
		}
		got := testing.AllocsPerRun(5, func() {
			lr.reset(net.Nodes(), old)
			if _, _, _, ok := lr.apply(net, d, next, fresh, lowerBound(net, next)); !ok {
				t.Fatal("apply rejected a delta")
			}
		})
		if got != want {
			t.Fatalf("apply allocated %v times per delta (leave %d, join %d), want %v", got, len(d.Leave), len(d.Join), want)
		}
		checked++
	})
	if checked == 0 {
		t.Fatal("no deltas in the stream")
	}
}
