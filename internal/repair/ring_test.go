package repair

import (
	"math/rand"
	"slices"
	"testing"

	"debruijnring/topology"
)

// stream configures a seeded fault/heal stream through one Patcher.
type stream struct {
	net    topology.RingEmbedder
	events int
	seed   int64
	// nodes caps the live node faults (the session tolerance of n on De
	// Bruijn networks).
	nodes int
	// start, when set, is the initial ring (installed by Restore), for
	// topologies whose embedders leave no off-ring spares to splice
	// through.
	start []int
}

// applied is one delta a Patcher applied during a stream: the ring
// before it, the fault sets Step checked it against, and want, the ring
// its tier built by itself — the FFC tier's successor walk, or the
// splice tier's private copy.
type applied struct {
	old         []int
	d           *delta
	next, fresh topology.FaultSet
	want        []int
	splice      bool
}

// deltaStream drives st's seeded stream of node faults, node heals (one
// or two at a time), ring link faults and link heals through one
// Patcher, re-embedding on every Unsupported exit as a session does
// (spare-ring streams drop the batch instead).  On De Bruijn networks a
// share of the node faults hits the FFC root's necklace, which the FFC
// tier declines, so the stream exercises both tiers.  Every delta a
// tier builds must apply, and leave the owned ring equal, element for
// element and rotation included, to the ring the tier built, and its
// hash equal to a from-scratch recompute; visit sees each one.  The
// hash is checked after every Embed and Restore too.
func deltaStream(t *testing.T, st stream, visit func(a applied)) (ffcDeltas, spliceDeltas int) {
	t.Helper()
	p := For(st.net)
	defer func() {
		if !t.Failed() {
			checkHash(t, p, "end of stream")
		}
	}()
	if st.start != nil {
		if err := p.Restore(nil, st.start, topology.FaultSet{}); err != nil {
			t.Fatal(err)
		}
	} else if _, _, err := p.Embed(topology.FaultSet{}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(st.seed))
	for i := 0; i < st.events; i++ {
		checkHash(t, p, "before an event")
		faults, old := p.Faults(), p.RingInts()
		if st.start != nil && 4*len(old) > 5*len(st.start) {
			// Bypasses and heals have used up most spares: start over.
			if err := p.Restore(nil, st.start, topology.FaultSet{}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var batch topology.FaultSet
		heal := false
		switch c := rng.Intn(10); {
		case c < 3 && len(faults.Nodes) > 0:
			// One or two processors: a two-node heal can insert the
			// second into a hop the first just opened.
			heal, batch = true, topology.NodeFaults(faults.Nodes[rng.Intn(len(faults.Nodes))], faults.Nodes[rng.Intn(len(faults.Nodes))])
		case c < 4 && len(faults.Edges) > 0:
			heal, batch = true, topology.EdgeFaults(faults.Edges[rng.Intn(len(faults.Edges))])
		case c < 6:
			j := rng.Intn(len(old))
			batch = topology.EdgeFaults(topology.Edge{From: old[j], To: old[(j+1)%len(old)]})
		case len(faults.Nodes) >= st.nodes:
			continue
		case c < 7 && p.ffc != nil:
			x := p.ffc.root
			for k := rng.Intn(p.ffc.g.N); k > 0; k-- {
				x = p.ffc.g.RotL(x)
			}
			batch = topology.NodeFaults(x)
		default:
			batch = topology.NodeFaults(old[rng.Intn(len(old))])
		}
		var next, fresh topology.FaultSet
		if heal {
			next = faults.Minus(batch)
		} else {
			next, fresh = faults.Union(batch), batch.Minus(faults)
			if fresh.IsEmpty() {
				continue
			}
			batch = fresh
		}
		switch o := p.Step(heal, batch, next); o {
		case Noop:
			if !slices.Equal(p.RingInts(), old) {
				t.Fatalf("%s event %d: Noop changed the ring", st.net.Name(), i)
			}
		case Unsupported:
			if !slices.Equal(p.RingInts(), old) {
				t.Fatalf("%s event %d: Unsupported changed the ring", st.net.Name(), i)
			}
			// A tier that answered with a ring change was overruled: by
			// the chain declining a partial splice heal (which leaves the
			// splice tier valid), by a ring short of dⁿ − nf, or by apply
			// rejecting the tier's own delta — a bug.
			if tr := p.LastTrace(); len(tr) > 0 {
				last, length := tr[len(tr)-1], len(p.splice.ring)
				if last.Tier == "ffc" {
					length = p.ffc.nodes
				}
				if last.Outcome != Noop && last.Outcome != Unsupported && (last.Tier == "ffc" || !p.splice.valid) &&
					length >= LowerBound(st.net, next) {
					t.Fatalf("%s event %d: apply rejected a %v delta of the %s tier", st.net.Name(), i, last.Outcome, last.Tier)
				}
			}
			if st.start == nil {
				p.Embed(next) // a rejected embed keeps the old state, as in a session
			} else if err := p.Restore(nil, old, faults); err != nil {
				// Drop the batch and keep the spare ring: the embedders
				// would cover every survivor and leave nothing to splice.
				t.Fatal(err)
			}
		default:
			a := applied{old: old, next: next, fresh: fresh, splice: p.ffc == nil || o == Spliced}
			if a.splice {
				a.d, a.want = &p.splice.out, slices.Clone(p.splice.ring)
				spliceDeltas++
			} else {
				var ok bool
				a.d = &p.ffc.out
				if a.want, ok = p.ffc.walk(); !ok {
					t.Fatalf("%s event %d: the FFC successor rule is not a ring", st.net.Name(), i)
				}
				ffcDeltas++
			}
			if got := p.RingInts(); !slices.Equal(got, a.want) {
				t.Fatalf("%s event %d (%v): owned ring differs from the tier's ring:\n%v\n%v", st.net.Name(), i, o, got, a.want)
			}
			checkHash(t, p, o.String())
			visit(a)
		}
	}
	return ffcDeltas, spliceDeltas
}

// hopSum is the ring hash recomputed from scratch: the sum of edgeHash
// over every hop, the closing one included.
func hopSum[T int | int32](ring []T) uint64 {
	var h uint64
	for i, v := range ring {
		h += edgeHash(int32(v), int32(ring[(i+1)%len(ring)]))
	}
	return h
}

// checkHash fails unless the Patcher's ring hash equals hopSum of its
// ring.
func checkHash(t *testing.T, p *Patcher, when string) {
	t.Helper()
	if got, want := p.RingHash(), hopSum(p.Ring()); got != want {
		t.Fatalf("%s: ring hash %x, recomputed %x", when, got, want)
	}
}

// TestRingHashTracksDeltas drives seeded fault/heal streams through
// Patcher.Step and Embed — B(2,6) to B(2,12) through both chain tiers,
// and Kautz(2,4) through the splice tier alone — and checks after every
// ring change (deltaStream's checkHash) that the hash apply moved by
// the delta's hops alone equals a from-scratch recompute.  Most deltas
// must change the hash, or the stream tests little.
func TestRingHashTracksDeltas(t *testing.T) {
	kautz, _ := topology.NewKautz(2, 4)
	cases := map[string]stream{
		"kautz(2,4)": {net: kautz, events: 300, seed: 7, nodes: 3, start: spareRing(t, kautz, kautz.Nodes()/2)},
	}
	for n := 6; n <= 12; n++ {
		net, err := topology.NewDeBruijn(2, n)
		if err != nil {
			t.Fatal(err)
		}
		cases[net.Name()] = stream{net: net, events: 150, seed: int64(n), nodes: n}
	}
	for name, st := range cases {
		t.Run(name, func(t *testing.T) {
			changed := 0
			ffcDeltas, spliceDeltas := deltaStream(t, st, func(a applied) {
				if hopSum(a.old) != hopSum(a.want) {
					changed++
				}
			})
			_, isDB := st.net.(*topology.DeBruijn)
			if spliceDeltas == 0 || (isDB && ffcDeltas == 0) || 2*changed < ffcDeltas+spliceDeltas {
				t.Fatalf("stream produced %d FFC and %d splice deltas, %d changing the hash; too few to test",
					ffcDeltas, spliceDeltas, changed)
			}
		})
	}
}

// spareRing finds, by depth-first search, a simple cycle of exactly
// size nodes through the lowest node that lies on one: a ring that
// leaves the rest of net off-ring as spares for the splice tier's
// bypasses.
func spareRing(t *testing.T, net topology.Network, size int) []int {
	t.Helper()
	var path []int
	on := make(map[int]bool)
	var dfs func() bool
	dfs = func() bool {
		u := path[len(path)-1]
		for _, w := range net.Successors(u, nil) {
			if len(path) == size {
				if w == path[0] {
					return true
				}
				continue
			}
			if on[w] {
				continue
			}
			path, on[w] = append(path, w), true
			if dfs() {
				return true
			}
			path, on[w] = path[:len(path)-1], false
		}
		return false
	}
	for v := range net.Nodes() {
		path, on[v] = []int{v}, true
		if dfs() && topology.VerifyRing(net, path, topology.FaultSet{}) {
			return path
		}
		on[v] = false
	}
	t.Fatalf("%s has no %d-node ring", net.Name(), size)
	return nil
}

// streams are the differential streams: De Bruijn networks through the
// chain, and the splice tier alone on spare-leaving rings of the other
// topologies.
func streams(t *testing.T) map[string]stream {
	db := func(d, n, events int) stream {
		net, err := topology.NewDeBruijn(d, n)
		if err != nil {
			t.Fatal(err)
		}
		return stream{net: net, events: events, seed: 11, nodes: n}
	}
	cube, _ := topology.NewHypercube(5)
	kautz, _ := topology.NewKautz(2, 4)
	se, _ := topology.NewShuffleExchange(2, 5)
	spare := func(net topology.RingEmbedder) stream {
		return stream{net: net, events: 300, seed: 11, nodes: 3, start: spareRing(t, net, net.Nodes()/2)}
	}
	return map[string]stream{
		"B(2,8)": db(2, 8, 300), "B(3,4)": db(3, 4, 300), "B(2,12)": db(2, 12, 120),
		"hypercube(5)": spare(cube), "kautz(2,4)": spare(kautz), "shuffleexchange(2,5)": spare(se),
	}
}

// TestRingDeltaMatchesWalk is the differential test of the delta path:
// on every delta of seeded fault/heal/link-fault streams, on De Bruijn
// networks through both tiers and on the other topologies through the
// splice tier, applying the delta to the ring before it gives the ring
// the tier built by itself element for element, passes the full
// VerifyRing, and carries exactly the Diff that ringDiff.diff reports
// for the same pair of rings.
func TestRingDeltaMatchesWalk(t *testing.T) {
	for name, st := range streams(t) {
		t.Run(name, func(t *testing.T) {
			var r Ring
			var diff ringDiff
			nodes, kinds := st.net.Nodes(), 0
			ffcDeltas, spliceDeltas := deltaStream(t, st, func(a applied) {
				r.reset(nodes, a.old)
				got, ok := r.apply(st.net, a.d, a.next, a.fresh, LowerBound(st.net, a.next))
				if !ok {
					t.Fatal("apply rejected a delta its tier built")
				}
				if r.hash != hopSum(a.want) {
					t.Fatalf("applied ring hash %x, recomputed %x", r.hash, hopSum(a.want))
				}
				if !slices.Equal(r.ints(), a.want) {
					t.Fatalf("applied ring differs from the tier's ring:\n%v\n%v", r.seq, a.want)
				}
				if !topology.VerifyRing(st.net, r.ints(), a.next) {
					t.Fatal("applied ring fails VerifyRing")
				}
				want := diff.diff(nodes, narrow(a.old), a.want)
				if !slices.Equal(got.Removed, want.Removed) || !slices.Equal(got.Added, want.Added) || got.Truncated != want.Truncated {
					t.Fatalf("delta %+v, ringDiff %+v", got, want)
				}
				for i, v := range r.seq {
					if r.pos[v] != int32(i) {
						t.Fatalf("position index of %d is %d, want %d", v, r.pos[v], i)
					}
				}
				if len(got.Removed) > 0 || len(got.Added) > 0 {
					kinds++
				}
			})
			_, isDB := st.net.(*topology.DeBruijn)
			if ffcDeltas+spliceDeltas < st.events/10 || kinds == 0 || spliceDeltas == 0 || (isDB && ffcDeltas < st.events/4) {
				t.Fatalf("stream produced %d FFC and %d splice deltas (%d changing membership); too few to test",
					ffcDeltas, spliceDeltas, kinds)
			}
		})
	}
}

// cloneDelta deep-copies a tier-owned delta so a test can corrupt it.
func cloneDelta(d *delta) *delta {
	return &delta{Start: d.Start, Length: d.Length,
		Nodes: slices.Clone(d.Nodes), Succ: slices.Clone(d.Succ),
		Leave: slices.Clone(d.Leave), Join: slices.Clone(d.Join)}
}

// TestRingApplyRejectsCorruptDeltas hand-corrupts real deltas of both
// tiers and checks that apply rejects each one and leaves the ring, its
// index, its hash and its scratch untouched (the intact delta still
// applies afterwards).
func TestRingApplyRejectsCorruptDeltas(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 8)
	type corruption struct {
		name string
		// splice limits the corruption to splice-tier deltas.
		splice bool
		// corrupt edits the delta (or the fault sets) against the old
		// ring and the ring the delta should produce; false means the
		// delta offers nothing to corrupt this way.
		corrupt func(d *delta, old, want []int, next, fresh *topology.FaultSet) bool
	}
	lengthOff := func(by int) func(d *delta, _, _ []int, _, _ *topology.FaultSet) bool {
		return func(d *delta, _, _ []int, _, _ *topology.FaultSet) bool {
			d.Length += by
			return true
		}
	}
	cases := []corruption{
		{"non-edge hop", false, func(d *delta, _, _ []int, _, _ *topology.FaultSet) bool {
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
		{"reused arc", false, func(d *delta, _, _ []int, _, _ *topology.FaultSet) bool {
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
		{"length one long", false, lengthOff(1)},
		{"length one short", false, lengthOff(-1)},
		{"leaving node unlisted", false, func(d *delta, _, _ []int, _, _ *topology.FaultSet) bool {
			if len(d.Leave) == 0 {
				return false
			}
			d.Leave = d.Leave[1:]
			d.Length++
			return true
		}},
		{"newly faulted node on ring", false, func(_ *delta, _, want []int, next, fresh *topology.FaultSet) bool {
			v := want[len(want)/2]
			*next = next.Union(topology.NodeFaults(v))
			*fresh = fresh.Union(topology.NodeFaults(v))
			return true
		}},
		{"newly faulted link on ring", false, func(_ *delta, _, want []int, next, fresh *topology.FaultSet) bool {
			e := topology.EdgeFaults(topology.Edge{From: want[len(want)/2], To: want[len(want)/2+1]})
			*next, *fresh = next.Union(e), fresh.Union(e)
			return true
		}},
		{"splice: bypass through a faulty node", true, func(d *delta, _, _ []int, next, fresh *topology.FaultSet) bool {
			if len(d.Join) == 0 {
				return false
			}
			v := topology.NodeFaults(d.Join[0])
			*next, *fresh = next.Union(v), fresh.Union(v)
			return true
		}},
		{"splice: insertion reusing an on-ring node", true, func(d *delta, old, _ []int, _, _ *topology.FaultSet) bool {
			if len(d.Join) == 0 {
				return false
			}
			// Swap the first joining node for an old-ring node the delta
			// does not otherwise touch, wherever the delta names it.
			v := d.Join[0]
			for _, y := range old {
				if slices.Contains(d.Nodes, y) || slices.Contains(d.Succ, y) || slices.Contains(d.Leave, y) {
					continue
				}
				for i := range d.Nodes {
					if d.Nodes[i] == v {
						d.Nodes[i] = y
					}
					if d.Succ[i] == v {
						d.Succ[i] = y
					}
				}
				d.Join[0] = y
				return true
			}
			return false
		}},
		{"splice: length one long", true, lengthOff(1)},
		{"splice: length one short", true, lengthOff(-1)},
	}
	tried := make(map[string]int)
	deltaStream(t, stream{net: net, events: 300, seed: 5, nodes: 8}, func(a applied) {
		var r Ring
		r.reset(net.Nodes(), a.old)
		for _, tc := range cases {
			if tc.splice && !a.splice {
				continue
			}
			bad := cloneDelta(a.d)
			badNext, badFresh := a.next, a.fresh
			if !tc.corrupt(bad, a.old, a.want, &badNext, &badFresh) {
				continue
			}
			tried[tc.name]++
			if _, ok := r.apply(net, bad, badNext, badFresh, LowerBound(net, a.next)); ok {
				t.Fatalf("%s: apply accepted the corrupt delta", tc.name)
			}
			if !slices.Equal(r.ints(), a.old) {
				t.Fatalf("%s: rejected delta mutated the ring", tc.name)
			}
			if r.hash != hopSum(a.old) {
				t.Fatalf("%s: rejected delta moved the ring hash", tc.name)
			}
			for i, v := range r.seq {
				if r.pos[v] != int32(i) {
					t.Fatalf("%s: rejected delta mutated the position index", tc.name)
				}
			}
			for _, w := range r.cuts {
				if w != 0 {
					t.Fatalf("%s: rejected delta left cut bits set", tc.name)
				}
			}
		}
		if _, ok := r.apply(net, a.d, a.next, a.fresh, LowerBound(net, a.next)); !ok || !slices.Equal(r.ints(), a.want) {
			t.Fatal("intact delta no longer applies after the rejections")
		}
	})
	for _, tc := range cases {
		if tried[tc.name] == 0 {
			t.Errorf("%s: no delta in the stream could be corrupted this way", tc.name)
		}
	}
}

// TestRingApplyAllocs pins apply's allocation budget: pooled scratch
// throughout, so a steady-state delta of either tier allocates only the
// fresh Removed and Added slices a caller retains.
func TestRingApplyAllocs(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 10)
	var r Ring
	checked := 0
	deltaStream(t, stream{net: net, events: 60, seed: 3, nodes: 10}, func(a applied) {
		want := 0.0
		if len(a.d.Leave)+len(a.d.Join) <= deltaLimit {
			if len(a.d.Leave) > 0 {
				want++
			}
			if len(a.d.Join) > 0 {
				want++
			}
		}
		got := testing.AllocsPerRun(5, func() {
			r.reset(net.Nodes(), a.old)
			if _, ok := r.apply(net, a.d, a.next, a.fresh, LowerBound(net, a.next)); !ok {
				t.Fatal("apply rejected a delta")
			}
		})
		if got != want {
			t.Fatalf("apply allocated %v times per delta (leave %d, join %d), want %v", got, len(a.d.Leave), len(a.d.Join), want)
		}
		checked++
	})
	if checked == 0 {
		t.Fatal("no deltas in the stream")
	}
}

// narrow converts a ring to the int32 ids a Ring holds.
func narrow(ring []int) []int32 {
	out := make([]int32, len(ring))
	for i, v := range ring {
		out[i] = int32(v)
	}
	return out
}

// TestLowerBound pins the one dⁿ − nf function: node faults only,
// clamped at 0, and 0 off De Bruijn.
func TestLowerBound(t *testing.T) {
	db, _ := topology.NewDeBruijn(2, 4)
	cube, _ := topology.NewHypercube(4)
	for _, tc := range []struct {
		net  topology.Network
		f    topology.FaultSet
		want int
	}{
		{db, topology.FaultSet{}, 16},
		{db, topology.NodeFaults(1, 2), 8},
		{db, topology.EdgeFaults(topology.Edge{From: 1, To: 2}), 16},
		{db, topology.NodeFaults(1, 2, 3, 4, 5), 0},
		{cube, topology.NodeFaults(1), 0},
	} {
		if got := LowerBound(tc.net, tc.f); got != tc.want {
			t.Errorf("%s %v: LowerBound %d, want %d", tc.net.Name(), tc.f, got, tc.want)
		}
	}
}
