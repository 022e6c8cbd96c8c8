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
	// nodeOnly limits the stream to node faults drawn from the ring and
	// node heals, the shape of a session's stream: its FFC deltas carry
	// for long runs between re-embeds.
	nodeOnly bool
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
		case c < 6 && !st.nodeOnly:
			j := rng.Intn(len(old))
			batch = topology.EdgeFaults(topology.Edge{From: old[j], To: old[(j+1)%len(old)]})
		case len(faults.Nodes) >= st.nodes:
			continue
		case c < 7 && p.ffc != nil && !st.nodeOnly:
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
	if got, want := p.RingHash(), hopSum(p.RingInts()); got != want {
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
// chain (one of them session-shaped, whose deltas carry for long runs
// between re-embeds), and the splice tier alone on spare-leaving rings
// of the other topologies.
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
	nodeFaults := db(2, 12, 400)
	nodeFaults.nodes, nodeFaults.nodeOnly = 4, true
	return map[string]stream{
		"B(2,8)": db(2, 8, 300), "B(3,4)": db(3, 4, 300), "B(2,12)": db(2, 12, 120), "B(2,12) node faults": nodeFaults,
		"hypercube(5)": spare(cube), "kautz(2,4)": spare(kautz), "shuffleexchange(2,5)": spare(se),
	}
}

// TestRingDeltaMatchesWalk is the differential test of the delta path:
// on every delta of seeded fault/heal/link-fault streams, on De Bruijn
// networks through both tiers and on the other topologies through the
// splice tier, applying the delta to the ring before it gives the ring
// the tier built by itself element for element (checkApplied).  Each
// delta is applied twice: to a ring freshly reset to one piece, and to
// one Ring that carries the whole stream, so pieces, departed nodes'
// slots and joined nodes in the buffer's append region build up between
// flattens.  The carried ring is replaced by the stream's ring only
// where the stream re-embedded or restarted (as the Patcher is on Embed
// and Restore).  It must carry most of a De Bruijn stream's deltas, and
// flatten at least twice on the session-shaped stream; the spare-ring
// streams restart every few events by design (their rings of 12 to 24
// nodes run out of spares), so they need only carry some.
func TestRingDeltaMatchesWalk(t *testing.T) {
	for name, st := range streams(t) {
		t.Run(name, func(t *testing.T) {
			var flat, carried Ring
			var diff ringDiff
			kinds, kept, replaced := 0, 0, 0
			ffcDeltas, spliceDeltas := deltaStream(t, st, func(a applied) {
				flat.reset(st.net.Nodes(), a.old)
				if checkApplied(t, &flat, &diff, st.net, a) {
					kinds++
				}
				if carried.equal(a.old) {
					kept++
				} else {
					carried.replace(st.net.Nodes(), a.old)
					replaced++
				}
				checkApplied(t, &carried, &diff, st.net, a)
			})
			_, isDB := st.net.(*topology.DeBruijn)
			if ffcDeltas+spliceDeltas < st.events/10 || kinds == 0 || (spliceDeltas == 0 && !st.nodeOnly) || (isDB && ffcDeltas < st.events/4) {
				t.Fatalf("stream produced %d FFC and %d splice deltas (%d changing membership); too few to test",
					ffcDeltas, spliceDeltas, kinds)
			}
			if kept == 0 || (isDB && kept < 2*replaced) || (st.nodeOnly && carried.rebases < 2) {
				t.Fatalf("%d deltas carried, %d after a replacement, %d flattens; too few to test", kept, replaced, carried.rebases)
			}
		})
	}
}

// checkApplied applies a's delta to r, which must hold a.old, and fails
// unless it is accepted and leaves r holding a.want — element for
// element, rotation included — with the hash a from-scratch recompute
// gives, a ring that passes the full VerifyRing, the Diff ringDiff.diff
// reports for the same pair of rings, and consistent pieces.  It
// reports whether the delta changed ring membership.
func checkApplied(t *testing.T, r *Ring, diff *ringDiff, net topology.Network, a applied) bool {
	t.Helper()
	got, ok := r.apply(net, a.d, a.next, a.fresh, LowerBound(net, a.next))
	if !ok {
		t.Fatal("apply rejected a delta its tier built")
	}
	if r.hash != hopSum(a.want) {
		t.Fatalf("applied ring hash %x, recomputed %x", r.hash, hopSum(a.want))
	}
	if seq := r.ints(); !slices.Equal(seq, a.want) {
		t.Fatalf("applied ring differs from the tier's ring:\n%v\n%v", seq, a.want)
	}
	if !topology.VerifyRing(net, r.ints(), a.next) {
		t.Fatal("applied ring fails VerifyRing")
	}
	want := diff.diff(net.Nodes(), narrow(a.old), a.want)
	if !slices.Equal(got.Removed, want.Removed) || !slices.Equal(got.Added, want.Added) || got.Truncated != want.Truncated {
		t.Fatalf("delta %+v, ringDiff %+v", got, want)
	}
	checkPieces(t, r)
	return len(got.Removed) > 0 || len(got.Added) > 0
}

// checkPieces fails unless r's piece table is consistent: ranks start
// at 0 and rise, the start index lists every piece once in start order,
// every node is located at its rank with its ring neighbours around it,
// exactly the ring's nodes have slots, the buffer keeps room for every off-ring node, the
// piece count is within maxPieces and no cut is left over.
func checkPieces(t *testing.T, r *Ring) {
	t.Helper()
	if len(r.pieces) == 0 || r.pieces[0].rank != 0 || len(r.pieces) > maxPieces || len(r.byStart) != len(r.pieces) || len(r.cuts) != 0 {
		t.Fatalf("%d pieces (first at rank %d), %d indexed, %d cuts left", len(r.pieces), r.pieces[0].rank, len(r.byStart), len(r.cuts))
	}
	seen := make([]bool, len(r.pieces))
	for i, e := range r.byStart {
		p := int(uint32(e))
		if seen[p] || int64(e>>32) != int64(r.pieces[p].start) || (i > 0 && e>>32 <= r.byStart[i-1]>>32) {
			t.Fatalf("start index entry %d (%x) is out of order or names piece %d twice", i, e, p)
		}
		seen[p] = true
	}
	for i := 1; i < len(r.pieces); i++ {
		if r.pieces[i].rank <= r.pieces[i-1].rank || int(r.pieces[i].rank) >= r.k {
			t.Fatalf("piece %d starts at rank %d after %d (ring of %d)", i, r.pieces[i].rank, r.pieces[i-1].rank, r.k)
		}
	}
	seq := r.appendTo(nil)
	for i, v := range seq {
		if r.loc[v] < 0 {
			t.Fatalf("node %d at rank %d has no slot", v, i)
		}
		p, rank := r.locate(int(v))
		if rank != i || r.after(p, int(r.loc[v])) != int(seq[(i+1)%len(seq)]) || r.before(p, int(r.loc[v])) != int(seq[(i+len(seq)-1)%len(seq)]) {
			t.Fatalf("node %d at rank %d: located at rank %d, or its neighbours are wrong", v, i, rank)
		}
	}
	on := 0
	for _, b := range r.loc {
		if b >= 0 {
			on++
		}
	}
	if on != r.k || len(seq) != r.k || len(r.buf)+len(r.loc)-r.k > cap(r.buf) {
		t.Fatalf("%d nodes with slots, %d materialized, ring of %d, buffer %d of %d", on, len(seq), r.k, len(r.buf), cap(r.buf))
	}
}

// TestRingRejoinTakesBackSlots checks that a node rejoining the ring
// takes back the buffer slot it left: after a node fault and the heal
// of the same node, the buffer holds no more slots than the ring, so
// heals do not grow it toward a flatten.
func TestRingRejoinTakesBackSlots(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 10)
	p := For(net)
	if _, _, err := p.Embed(topology.FaultSet{}); err != nil {
		t.Fatal(err)
	}
	for _, x := range []int{5, 77, 300, 513, 1000} {
		f := topology.NodeFaults(x)
		if o := p.Step(false, f, p.Faults().Union(f)); o != Patched {
			t.Fatalf("fault %d: %v, want Patched", x, o)
		}
		if o := p.Step(true, f, p.Faults().Minus(f)); o != Readmitted {
			t.Fatalf("heal %d: %v, want Readmitted", x, o)
		}
		if len(p.ring.buf) != p.ring.k {
			t.Fatalf("node %d left and rejoined: the buffer holds %d slots for a ring of %d", x, len(p.ring.buf), p.ring.k)
		}
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
// pieces, buffer, slot index, hash and cut list untouched (the intact
// delta still applies afterwards), on a freshly reset ring and on one
// fragmented by the stream so far.
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
	// Each delta is corrupted against two rings holding the same old
	// ring: one reset to a single piece, and one that has carried the
	// stream, with its pieces, departed slots and joined nodes.
	tried := make(map[string]int)
	var carried Ring
	fragmented, base, flattens := 0, 0, 0 // base: the buffer's length at the last flatten
	deltaStream(t, stream{net: net, events: 300, seed: 5, nodes: 8}, func(a applied) {
		var flat Ring
		flat.reset(net.Nodes(), a.old)
		if !carried.equal(a.old) {
			carried.replace(net.Nodes(), a.old)
			base = len(carried.buf)
		}
		if flattens != carried.rebases {
			flattens, base = carried.rebases, len(carried.buf)
		}
		if len(carried.pieces) >= 8 && slices.ContainsFunc(carried.pieces, func(p piece) bool { return int(p.start) >= base }) {
			fragmented++
		}
		for _, r := range []*Ring{&flat, &carried} {
			before := ringState(r)
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
				if after := ringState(r); !after.equal(before) {
					t.Fatalf("%s: rejected delta changed the ring state:\n%+v\n%+v", tc.name, before, after)
				}
				if !slices.Equal(r.ints(), a.old) || r.hash != hopSum(a.old) {
					t.Fatalf("%s: rejected delta mutated the ring or moved its hash", tc.name)
				}
			}
			if _, ok := r.apply(net, a.d, a.next, a.fresh, LowerBound(net, a.next)); !ok || !slices.Equal(r.ints(), a.want) {
				t.Fatal("intact delta no longer applies after the rejections")
			}
		}
	})
	for _, tc := range cases {
		if tried[tc.name] == 0 {
			t.Errorf("%s: no delta in the stream could be corrupted this way", tc.name)
		}
	}
	if fragmented == 0 || carried.rebases == 0 {
		t.Errorf("corruptions met a fragmented ring with joined nodes past its flattened part %d times, across %d flattens; want both > 0",
			fragmented, carried.rebases)
	}
}

// pieceState is everything apply may change in a Ring.
type pieceState struct {
	pieces   []piece
	byStart  []uint64
	buf, loc []int32
	k        int
	hash     uint64
	cuts     int
	rebases  int
}

// ringState copies r's piece state.
func ringState(r *Ring) pieceState {
	return pieceState{slices.Clone(r.pieces), slices.Clone(r.byStart), slices.Clone(r.buf), slices.Clone(r.loc),
		r.k, r.hash, len(r.cuts), r.rebases}
}

func (s pieceState) equal(o pieceState) bool {
	return slices.Equal(s.pieces, o.pieces) && slices.Equal(s.byStart, o.byStart) && slices.Equal(s.buf, o.buf) &&
		slices.Equal(s.loc, o.loc) && s.k == o.k && s.hash == o.hash && s.cuts == o.cuts && s.rebases == o.rebases
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
