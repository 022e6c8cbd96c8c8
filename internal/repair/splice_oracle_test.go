package repair

// The splice oracle: the splice tier and the ladder around it as they
// stood while the tier kept its own copy of the ring, copied verbatim
// (only the type names and the membership maps' constructors differ),
// the way walk_test.go keeps the FFC walk.  That tier held a private ring, its fault set and an
// incremental membership set, and on the De Bruijn chain resynced them
// from the owned ring before every splice attempt.  TestSpliceMatchesOracle
// drives the same seeded fault/heal streams through it and through the
// Patcher and requires every step to agree.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"debruijnring/internal/dense"
	"debruijnring/topology"
)

// nodeSet and edgeSet are the membership maps the oracle's tier built
// per call (they were FaultSet.NodeSet and FaultSet.EdgeSet).
func nodeSet(f topology.FaultSet) map[int]bool {
	m := make(map[int]bool, len(f.Nodes))
	for _, v := range f.Nodes {
		m[v] = true
	}
	return m
}

func edgeSet(f topology.FaultSet) map[topology.Edge]bool {
	m := make(map[topology.Edge]bool, len(f.Edges))
	for _, e := range f.Edges {
		m[e] = true
	}
	return m
}

// newOraclePatcher is For over the oracle tiers.
func newOraclePatcher(net topology.RingEmbedder) *oraclePatcher {
	p := &oraclePatcher{net: net, splice: &oracleSplice{net: net}}
	if db, ok := net.(*topology.DeBruijn); ok {
		p.ffc = newFFCPatcher(db)
	}
	return p
}

// oracleStream is one seeded fault/heal stream of TestSpliceMatchesOracle.
type oracleStream struct {
	net    topology.RingEmbedder
	events int
	seed   int64
	// nodes and edges cap the live node and link faults.
	nodes, edges int
	// spare, when set, is the length of a ring (installed by Restore
	// around no faults) that starts the stream and restarts it every 10
	// events, for topologies whose embedders leave no off-ring spares to
	// splice through.
	spare int
}

// TestSpliceMatchesOracle runs seeded streams of node faults, link
// faults, multi-node fault batches and multi-node heal batches through
// a Patcher and through the oracle side by side, calling Embed after
// every Unsupported as the package contract asks (a rejected embed
// leaves both as they were).  After every Step and every Embed the two
// must agree on the outcome, the tier trace, the splice tier's delta
// (Start, Length, the successor edits in order, Leave and Join), the
// Diff, the fault set, the ring hash, the ring itself, rotation
// included, and the snapshot.  Shuffle-exchange embeds dilation-2
// walks, so its splice tier must answer Unsupported every time.
func TestSpliceMatchesOracle(t *testing.T) {
	db := func(n, events int) oracleStream {
		net, err := topology.NewDeBruijn(2, n)
		if err != nil {
			t.Fatal(err)
		}
		return oracleStream{net: net, events: events, seed: 3, nodes: n, edges: 3}
	}
	cube := func(n, events int) oracleStream {
		net, err := topology.NewHypercube(n)
		if err != nil {
			t.Fatal(err)
		}
		return oracleStream{net: net, events: events, seed: 5, nodes: 3, edges: 2}
	}
	kautz, _ := topology.NewKautz(2, 4)
	butterfly, _ := topology.NewButterfly(2, 4)
	se, _ := topology.NewShuffleExchange(2, 5)
	streams := map[string]oracleStream{
		"B(2,8)":               db(8, 600),
		"B(2,10)":              db(10, 400),
		"kautz(2,4)":           {net: kautz, events: 400, seed: 7, nodes: 3, edges: 2, spare: 12},
		"hypercube(6)":         cube(6, 400),
		"hypercube(8)":         cube(8, 300),
		"butterfly(2,4)":       {net: butterfly, events: 400, seed: 9, nodes: 3, edges: 2, spare: 12},
		"shuffleexchange(2,5)": {net: se, events: 150, seed: 11, nodes: 3},
	}
	var total oracleCounts
	ran := 0
	for name, st := range streams {
		t.Run(name, func(t *testing.T) {
			c := driveOracle(t, st)
			ran++
			total.multiHeals += c.multiHeals
			total.linkCuts += c.linkCuts
			if _, ok := st.net.(*topology.ShuffleExchange); ok {
				if c.attempts == 0 || c.changed > 0 {
					t.Fatalf("%d splice attempts, %d ring changes; want attempts, all Unsupported", c.attempts, c.changed)
				}
				return
			}
			if c.changed < st.events/25 || c.patched == 0 || c.healed == 0 {
				t.Fatalf("%d splice attempts: %d ring changes (%d cuts, %d heals); too few to compare",
					c.attempts, c.changed, c.patched, c.healed)
			}
		})
	}
	if ran == len(streams) && (total.multiHeals == 0 || total.linkCuts == 0) {
		t.Fatalf("%d splice heals re-inserted several nodes, %d cuts severed links; want both > 0", total.multiHeals, total.linkCuts)
	}
}

// oracleCounts tallies the splice tier's part in one stream: attempts,
// ring changes, and among those cuts (Patched) and re-insertions
// (Readmitted), plus heals that re-inserted several nodes in one call
// and cuts of ring links.
type oracleCounts struct {
	attempts, changed, patched, healed, multiHeals, linkCuts int
}

// driveOracle runs st through a Patcher and the oracle and checks them
// against each other after every call.
func driveOracle(t *testing.T, st oracleStream) (c oracleCounts) {
	t.Helper()
	rng := rand.New(rand.NewSource(st.seed))
	p, q := For(st.net), newOraclePatcher(st.net)
	var spare []int
	if st.spare > 0 {
		spare = spareRing(t, st.net, st.spare)
	}
	restart := func() {
		if err := p.Restore(nil, spare, topology.FaultSet{}); err != nil {
			t.Fatal(err)
		}
		if err := q.Restore(nil, spare, topology.FaultSet{}); err != nil {
			t.Fatal(err)
		}
		sameState(t, p, q, "restart")
	}
	embed := func(f topology.FaultSet, when string) {
		_, _, err := p.Embed(f)
		_, _, qerr := q.Embed(f)
		if (err == nil) != (qerr == nil) {
			t.Fatalf("%s: Embed errors differ: %v, oracle %v", when, err, qerr)
		}
		sameState(t, p, q, when)
	}
	if st.spare > 0 {
		restart()
	} else {
		embed(topology.FaultSet{}, "initial embed")
	}
	_, isDB := st.net.(*topology.DeBruijn)
	for i := 0; i < st.events; i++ {
		when := fmt.Sprintf("event %d", i)
		if st.spare > 0 && i > 0 && i%10 == 0 {
			restart()
		}
		faults, ring := p.Faults(), p.RingInts()
		heal := !faults.IsEmpty() && rng.Intn(5) < 2
		var batch topology.FaultSet
		switch c := rng.Intn(10); {
		case heal && (c < 3 || len(faults.Nodes) == 0):
			// Heal the links and up to one node.
			batch.Edges = faults.Edges
			if len(faults.Nodes) > 0 {
				batch.Nodes = []int{faults.Nodes[rng.Intn(len(faults.Nodes))]}
			}
		case heal:
			// Heal up to three nodes in one batch.
			for _, j := range rng.Perm(len(faults.Nodes))[:min(len(faults.Nodes), 1+rng.Intn(3))] {
				batch.Nodes = append(batch.Nodes, faults.Nodes[j])
			}
		case c < 2 && len(faults.Edges) < st.edges:
			// A ring hop, or any link of a random node.
			j := rng.Intn(len(ring))
			u, w := ring[j], ring[(j+1)%len(ring)]
			if c == 1 {
				u = rng.Intn(st.net.Nodes())
				succ := st.net.Successors(u, nil)
				w = succ[rng.Intn(len(succ))]
			}
			batch = topology.EdgeFaults(topology.Edge{From: u, To: w})
		case c < 4 && isDB && p.ffc != nil:
			// A node of the FFC root's necklace: the FFC tier declines it.
			x := p.ffc.root
			for k := rng.Intn(p.ffc.g.N); k > 0; k-- {
				x = p.ffc.g.RotL(x)
			}
			batch = topology.NodeFaults(x)
		case len(faults.Nodes) < st.nodes:
			// One or two ring nodes, or any node.
			batch = topology.NodeFaults(ring[rng.Intn(len(ring))])
			if c < 6 && len(faults.Nodes)+1 < st.nodes {
				batch.Nodes = append(batch.Nodes, ring[rng.Intn(len(ring))])
			} else if c == 9 {
				batch = topology.NodeFaults(rng.Intn(st.net.Nodes()))
			}
		default:
			continue
		}
		batch = batch.Canonical()
		var next topology.FaultSet
		if heal {
			next = faults.Minus(batch)
		} else {
			next = faults.Union(batch)
			batch = batch.Minus(faults)
		}
		if batch.IsEmpty() {
			continue
		}
		o, qo := p.Step(heal, batch, next), q.Step(heal, batch, next)
		if o != qo {
			t.Fatalf("%s: outcome %v, oracle %v", when, o, qo)
		}
		sameTrace(t, p.LastTrace(), q.trace, when)
		if tr := p.LastTrace(); len(tr) > 0 && tr[len(tr)-1].Tier == "splice" {
			c.attempts++
			if o != Noop && o != Unsupported {
				sameDelta(t, &p.splice.out, &q.splice.out, when)
				c.changed++
				if heal {
					c.healed++
					if tr[len(tr)-1].Touched > 1 {
						c.multiHeals++
					}
				} else {
					c.patched++
					if len(batch.Edges) > 0 {
						c.linkCuts++
					}
				}
			}
		}
		sameState(t, p, q, when)
		if o == Unsupported {
			embed(next, when+" re-embed")
		}
	}
	t.Logf("%+v", c)
	return c
}

// sameTrace fails unless two tier traces agree step for step, timings
// aside.
func sameTrace(t *testing.T, got, want []TierStep, when string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: trace %+v, oracle %+v", when, got, want)
	}
	for i := range got {
		if got[i].Tier != want[i].Tier || got[i].Outcome != want[i].Outcome || got[i].Touched != want[i].Touched {
			t.Fatalf("%s: trace %+v, oracle %+v", when, got, want)
		}
	}
}

// sameDelta fails unless two deltas are equal, edit order included.
func sameDelta(t *testing.T, got, want *delta, when string) {
	t.Helper()
	if got.Start != want.Start || got.Length != want.Length || !slices.Equal(got.Nodes, want.Nodes) ||
		!slices.Equal(got.Succ, want.Succ) || !slices.Equal(got.Leave, want.Leave) || !slices.Equal(got.Join, want.Join) {
		t.Fatalf("%s: delta %+v, oracle %+v", when, *got, *want)
	}
}

// sameState fails unless p and the oracle q hold the same ring (rotation
// included), hash, fault set, Diff and snapshot.
func sameState(t *testing.T, p *Patcher, q *oraclePatcher, when string) {
	t.Helper()
	if got, want := p.RingInts(), q.ring.ints(); !slices.Equal(got, want) {
		t.Fatalf("%s: ring of %d nodes, oracle %d:\n%v\n%v", when, len(got), len(want), got, want)
	}
	if p.RingHash() != q.ring.hash {
		t.Fatalf("%s: ring hash %x, oracle %x", when, p.RingHash(), q.ring.hash)
	}
	if got, want := p.Faults(), q.faults; !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Edges, want.Edges) {
		t.Fatalf("%s: faults %v, oracle %v", when, got, want)
	}
	if got, want := p.Diff(), q.diff; !slices.Equal(got.Removed, want.Removed) || !slices.Equal(got.Added, want.Added) || got.Truncated != want.Truncated {
		t.Fatalf("%s: diff %+v, oracle %+v", when, got, want)
	}
	st, regen := p.Snapshot()
	qst, qregen := q.Snapshot()
	got, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(qst)
	if err != nil {
		t.Fatal(err)
	}
	if regen != qregen || !bytes.Equal(got, want) {
		t.Fatalf("%s: snapshot %s (regenerates %v), oracle %s (%v)", when, got, regen, want, qregen)
	}
}

// oraclePatcher owns one ring and the repair ladder that keeps it valid while
// faults come and go.  For De Bruijn networks the ladder is a chain: the
// FFC structural tier first, and whenever it returns Unsupported —
// root-necklace loss (including the root-fault and root-necklace-exit-
// link cases that used to always recompute), non-spanning survivor
// graphs, unreorderable stars, failed reattach — the generic splice tier
// attempts a local bypass repair of the live ring before the caller pays
// for a cold re-embed:
//
//	FFC surgery (~O(touched stars)) → splice bypass (~O(ring)) → re-embed (O(dⁿ))
//
// Splice-tier results on the chain are reported as Spliced so sessions
// can journal (and stats can count) which tier resolved each event.
// Every other topology runs the splice tier alone, reporting Patched and
// Readmitted.
//
// Either tier answers with a delta, which the oraclePatcher applies to its
// Ring in place and proves valid from the seams it touched (Ring.apply).
// A batch changes the ring only when its delta passes; on any other
// outcome the ring and fault set are untouched, and the caller re-embeds
// with Embed.
//
// On the chain the splice tier is synchronized lazily, from the owned
// ring and fault set, the first time the FFC tier declines.  Once the
// splice tier has modified the ring, the FFC tier's structures no longer
// describe it, so every later batch goes straight to the splice tier
// until the next successful Embed — at which point the FFC tier
// re-adopts the ring and the ladder resets.  All decisions are
// deterministic, so journal replay retraces the exact tier sequence.
type oraclePatcher struct {
	net    topology.RingEmbedder
	ffc    *ffcPatcher // nil off De Bruijn: the splice tier runs alone
	splice *oracleSplice

	// spliceOwns marks that the splice tier last modified a chain's ring
	// (the FFC tier is stale until the next successful Embed).
	spliceOwns bool

	ring   Ring
	faults topology.FaultSet
	diff   Diff

	// trace holds the tier ladder of the most recent Step for LastTrace.
	trace []TierStep
}

// traceStep appends one tier attempt to the current call's trace.
func (p *oraclePatcher) traceStep(tier string, o Outcome, touched int, start time.Time) {
	//ringlint:allow time trace-only timing; Elapsed is diagnostic, never replayed or hashed
	p.trace = append(p.trace, TierStep{Tier: tier, Outcome: o.String(), Touched: touched, Elapsed: time.Since(start)})
}

// Embed performs a full re-embed for the cumulative fault set f and
// installs the ring as a full replacement, resetting the ladder; Diff
// then reports what changed against the previous ring.  It is also the
// initial embedding of a session.  A rejected fault set mutates nothing:
// the previous ring, fault set and tier state stay patchable.
func (p *oraclePatcher) Embed(f topology.FaultSet) ([]int, *topology.EmbedInfo, error) {
	var ring []int
	var info *topology.EmbedInfo
	var err error
	if p.ffc != nil {
		ring, info, err = p.ffc.Embed(f)
	} else {
		ring, info, err = p.splice.Embed(f)
	}
	if err != nil {
		return nil, nil, err
	}
	p.spliceOwns = false
	p.diff = p.ring.replace(p.net.Nodes(), ring)
	p.faults = f.Canonical()
	return ring, info, nil
}

// Step runs the ladder for one fault (heal false) or heal batch.  next
// is the cumulative fault set after it: Faults() plus batch for a fault,
// minus batch for a heal.  On a ring-changing outcome the ring was
// changed in place and Diff reports how; on Noop only the fault set
// moved to next; on Unsupported nothing changed and the caller must
// Embed(next).  A batch with out-of-range coordinates is Unsupported
// before any tier sees it, so bad input never poisons tier state.
func (p *oraclePatcher) Step(heal bool, batch, next topology.FaultSet) Outcome {
	p.trace = p.trace[:0]
	p.diff = Diff{}
	batch = batch.Canonical()
	if !p.validBatch(batch) {
		return Unsupported
	}
	var fresh topology.FaultSet // faults the new ring must avoid that the old one did not
	if !heal {
		fresh = batch
	}
	o := p.ladder(heal, batch, next, fresh)
	if o != Unsupported {
		p.faults = next
	}
	return o
}

// validBatch reports whether every coordinate of f names a node of the
// network.
func (p *oraclePatcher) validBatch(f topology.FaultSet) bool {
	size := p.net.Nodes()
	for _, x := range f.Nodes {
		if x < 0 || x >= size {
			return false
		}
	}
	for _, e := range f.Edges {
		if e.From < 0 || e.From >= size || e.To < 0 || e.To >= size {
			return false
		}
	}
	return true
}

// ladder descends the tiers for one batch and applies the first delta
// a tier produces.
func (p *oraclePatcher) ladder(heal bool, batch, next, fresh topology.FaultSet) Outcome {
	minLen := LowerBound(p.net, next)
	if p.ffc != nil && !p.spliceOwns {
		start := time.Now() //ringlint:allow time trace-only timing
		var o Outcome
		if heal {
			o = p.ffc.unpatch(batch, p.faults, next)
		} else {
			o = p.ffc.patch(batch, p.faults, next)
		}
		p.traceStep("ffc", o, p.ffc.touched, start)
		switch o {
		case Noop:
			return Noop
		case Unsupported:
			// The FFC tier declined; its bookkeeping may not include this
			// batch, but it is now invalid (or permanently non-spanning)
			// and declines everything until the next Embed, so the owned
			// (ring, faults) is the single source of truth for the splice
			// tier below.
		default:
			if p.apply(p.ffc.emit(), next, fresh, minLen) {
				return o
			}
			p.ffc.valid = false
			return Unsupported
		}
	}

	start := time.Now() //ringlint:allow time trace-only timing
	sp := p.splice
	if p.ffc != nil && !p.syncSplice() {
		p.traceStep("splice", Unsupported, 0, start)
		return Unsupported
	}
	var o Outcome
	if heal {
		o = sp.unpatch(batch)
	} else {
		o = sp.patch(batch)
	}
	p.traceStep("splice", o, sp.touched, start)
	if p.ffc != nil {
		o = p.chainOutcome(heal, o)
	}
	if o == Noop || o == Unsupported {
		return o
	}
	if !p.apply(sp.emit(), next, fresh, minLen) {
		sp.valid = false
		return Unsupported
	}
	p.spliceOwns = p.ffc != nil
	return o
}

// chainOutcome maps a splice-tier outcome to the chain's.  Ring changes
// become Spliced.  Heals are accepted only when complete: a splice heal
// that leaves healed processors off the ring would silently freeze the
// ring short of what a re-embed restores, so a partial heal — or a Noop
// that healed processors but re-inserted none — declines and lets the
// caller regrow the ring via Embed.  The splice tier's pooled membership
// set is current right after its unpatch, so the check costs no
// allocation (validBatch already range-checked every node).
func (p *oraclePatcher) chainOutcome(heal bool, o Outcome) Outcome {
	switch {
	case o == Patched:
		return Spliced
	case o == Readmitted:
		for _, v := range p.splice.healed {
			if !p.splice.onRingHas(v) {
				return Unsupported
			}
		}
		return Spliced
	case o == Noop && heal && len(p.splice.healed) > 0:
		return Unsupported
	}
	return o
}

// apply applies a tier's delta to the owned ring, recording its Diff.
func (p *oraclePatcher) apply(d *delta, next, fresh topology.FaultSet, minLen int) bool {
	diff, ok := p.ring.apply(p.net, d, next, fresh, minLen)
	if ok {
		p.diff = diff
	}
	return ok
}

// syncSplice points a chain's splice tier at the owned ring and fault
// set, rebuilding its state unless it already holds exactly that pair
// (as it does right after an accepted splice).  Comparing instead of
// trusting a flag means a splice result the ring rejected never leaks
// into a later batch.  restore(nil, …) re-checks node distinctness, so a
// corrupted ring can never be spliced.
func (p *oraclePatcher) syncSplice() bool {
	sp := p.splice
	same := sp.valid && slices.Equal(sp.faults.Nodes, p.faults.Nodes) &&
		slices.Equal(sp.faults.Edges, p.faults.Edges) && p.ring.equal(sp.ring)
	if !same {
		sp.restore(nil, p.ring.ints(), p.faults)
	}
	return sp.valid
}

// Snapshot returns the state needed to resume patching after a
// restart, and whether Restore can regenerate the ring from it alone.
// Only a valid FFC tier can — its successor rule is the ring — so for a
// splice-owned chain, a chain whose FFC tier is stale and every other
// topology the caller must persist the ring too.  A nil State is
// valid: Restore(nil, ring, …) rebuilds only what (ring, faults) alone
// support — the chain can still splice via its lazily resynced bypass
// tier, while structural surgery declines until the next Embed.
func (p *oraclePatcher) Snapshot() (st *State, regenerates bool) {
	if p.ffc == nil {
		return &State{TierState: TierState{SpliceState: p.splice.snapshot()}}, false
	}
	if p.spliceOwns {
		return &State{Tier: "splice", State: &TierState{SpliceState: p.splice.snapshot()}}, false
	}
	if f := p.ffc.snapshot(p.faults); f != nil {
		return &State{Tier: "ffc", State: &TierState{FFCState: f}}, true
	}
	return nil, false
}

// Restore reinstates a snapshot taken at the cumulative fault set f,
// and installs the ring and f.  ring is the ring the snapshot was taken
// at; an empty one asks the FFC tier to regenerate it from st, with one
// walk of its successor rule after auditing its tree and overrides.  On
// error neither the ring nor the fault set is installed.
func (p *oraclePatcher) Restore(st *State, ring []int, f topology.FaultSet) error {
	f = f.Canonical()
	nodes := p.net.Nodes()
	for _, v := range ring {
		if v < 0 || v >= nodes {
			return fmt.Errorf("repair: restored ring node %d out of range", v)
		}
	}
	if p.ffc == nil {
		var sp *SpliceState
		if st != nil {
			sp = st.SpliceState
		}
		p.splice.restore(sp, ring, f)
	} else {
		var err error
		if ring, err = p.restoreChain(st, ring, f); err != nil {
			return err
		}
	}
	if len(ring) == 0 {
		return fmt.Errorf("repair: snapshot holds no ring and no FFC state to regenerate one")
	}
	p.ring.reset(nodes, ring)
	p.faults = f
	return nil
}

// restoreChain restores a chain's owning tier and returns the ring to
// install: ring itself, or the FFC tier's walk when ring is empty.
func (p *oraclePatcher) restoreChain(st *State, ring []int, f topology.FaultSet) ([]int, error) {
	p.spliceOwns = false
	if st == nil {
		// Both tiers stale: the FFC tier declines until the next Embed
		// and the splice tier resyncs lazily from (ring, faults) — the
		// same state a live chain is in right after the FFC tier
		// invalidates.
		p.ffc.valid = false
		return ring, nil
	}
	ts := st.TierState // a legacy snapshot: the bare FFC state recorded before the chain
	if st.Tier != "" && st.State != nil {
		ts = *st.State
	}
	switch st.Tier {
	case "splice":
		p.splice.restore(ts.SpliceState, ring, f)
		if !p.splice.valid {
			return nil, fmt.Errorf("repair: splice snapshot restored to an unsplicable ring")
		}
		p.spliceOwns = true
		return ring, nil
	case "ffc", "":
		return p.ffc.restore(ts.FFCState, ring, f)
	}
	return nil, fmt.Errorf("repair: unknown chain snapshot tier %q", st.Tier)
}

// oracleSplice repairs rings on any unit-dilation topology by cutting
// out the faulted components and re-splicing the surviving arcs.  Bypass
// paths run through off-ring survivors only, so it shines once faults
// have already shrunk the ring below the network size and degrades to
// Unsupported (→ full re-embed) on a fresh Hamiltonian ring whose cut
// ends are not directly linked.
//
// The tier works on a private copy of the ring, whose membership its
// partial-heal check reads, and reports each ring change as a delta
// against the ring before it (emit), which the owning oraclePatcher applies.
type oracleSplice struct {
	net    topology.RingEmbedder
	valid  bool
	ring   []int
	faults topology.FaultSet

	// touched counts the splice operations of the most recent
	// patch/unpatch (arcs reconnected, processors re-inserted); healed
	// lists the processors the most recent unpatch took off the fault
	// set.
	touched int
	healed  []int

	// The edit log of the current patch/unpatch, from which emit builds
	// its delta.  setSucc records each node whose successor changed once
	// (succ holds the latest successor, edited the first-write order);
	// leave and join collect the nodes dropping off and coming onto the
	// ring.  All pooled across calls.
	succ   dense.Sparse
	edited []int
	leave  []int
	join   []int
	out    delta

	// Pooled dense scratch, reused across every patch/unpatch/bypass so
	// a steady-state splice event allocates no ring-sized buffer.  All
	// sets are epoch-stamped (O(1) reset, internal/dense).
	//
	// onRing is *incremental* ring-membership state: it stays valid
	// across heal events (insertAfter registers new members) and is only
	// rebuilt — lazily, via ensureOnRing — after a ring replacement that
	// bypassed it (onRingOK false).  A successful patch refreshes it for
	// free by swapping in the used set, whose members are by then exactly
	// the new ring.
	used     dense.Set  // patch: surviving arcs + committed bypass interiors
	onRing   dense.Set  // incremental ring membership (see onRingOK)
	onRingOK bool       // onRing matches p.ring
	prev     dense.Ints // bypass BFS parent pointers, epoch-reset per attempt
	frontier []int32    // bypass BFS frontier double-buffer
	nextF    []int32
	succBuf  []int // topology.Successors scratch
	pathBuf  []int // bypass path reconstruction (returned; valid until next bypass)
	seqBuf   []int // insertHealed splice sequence
	segFlat  []int // surviving arcs, flattened
	segEnds  []int // exclusive end offsets into segFlat, one per arc
	ringNext []int // patch result double-buffer, swapped with ring
}

// maxBypassLen bounds the length of one bypass path: twice the diameter
// scale log₂(size) covers every adapter in the repo (De Bruijn and Kautz
// diameters are n, the hypercube's is log₂ size, the butterfly's Θ(n)).
func (p *oracleSplice) maxBypassLen() int {
	return 2*bits.Len(uint(p.net.Nodes())) + 2 //ringlint:allow alloc adapter Nodes is a field read on every in-tree topology
}

func (p *oracleSplice) Embed(f topology.FaultSet) ([]int, *topology.EmbedInfo, error) {
	ring, info, err := p.net.EmbedRing(f)
	if err != nil {
		// Nothing was mutated: a rejected fault set (out-of-range
		// coordinates, over-tolerance batch) must not poison a healthy
		// patcher — the previous ring state stays patchable.
		return nil, nil, err
	}
	p.reset(ring, f, info.Dilation)
	return ring, info, nil
}

// reset installs a freshly embedded ring.  Dilation-2 closed walks
// revisit nodes, so splice surgery does not apply to them; the patcher
// stays invalid and every patch reports Unsupported.
func (p *oracleSplice) reset(ring []int, f topology.FaultSet, dilation int) {
	p.ring = append(p.ring[:0], ring...)
	p.faults = f.Canonical()
	p.valid = dilation <= 1 && len(ring) <= p.net.Nodes()
	p.onRingOK = false
}

// ensureOnRing rebuilds the pooled ring-membership set if (and only if)
// the ring was replaced since it was last valid.  Callers must hold
// p.valid, which guarantees every ring node is in [0, Nodes()).
func (p *oracleSplice) ensureOnRing() {
	if p.onRingOK {
		return
	}
	p.onRing.Reset(p.net.Nodes())
	for _, v := range p.ring {
		p.onRing.Add(v)
	}
	p.onRingOK = true
}

// onRingHas reports ring membership from the pooled incremental set.
// v must be in [0, Nodes()) and the patcher valid — the owning oraclePatcher
// range-checks every batch before either tier sees it.
func (p *oracleSplice) onRingHas(v int) bool {
	p.ensureOnRing()
	return p.onRing.Has(v)
}

func (p *oracleSplice) snapshot() *SpliceState {
	return &SpliceState{Splicable: p.valid}
}

// restore installs ring and f under the snapshot st.
func (p *oracleSplice) restore(st *SpliceState, ring []int, f topology.FaultSet) {
	dilation := 1
	if st != nil && !st.Splicable {
		// The snapshot records an unsplicable embedding (a dilation-2
		// closed walk): stay invalid even when the walk's nodes happen
		// to be distinct.
		dilation = 2
	}
	// Journals from before the splicability bit carry no snapshot; for
	// them (st == nil) the distinct-node check below is the only
	// available gate.
	p.reset(ring, f, dilation)
	if p.valid {
		// The distinctness scan doubles as the onRing build.  Restored
		// rings come from journals, so range-check before dense indexing:
		// a corrupt ring must invalidate the patcher, not panic it.
		n := p.net.Nodes()
		p.onRing.Reset(n)
		for _, v := range ring {
			if v < 0 || v >= n || !p.onRing.Add(v) {
				p.valid = false
				break
			}
		}
		p.onRingOK = p.valid
	}
}

// resetLog empties the edit log; patch and unpatch start with it.
//
//ringlint:noalloc
func (p *oracleSplice) resetLog() {
	p.touched = 0
	p.succ.Reset()
	p.edited, p.leave, p.join = p.edited[:0], p.leave[:0], p.join[:0]
}

// setSucc logs v as x's new ring successor; a later write for the same
// x (a second insertion into the same hop) keeps only the final one.
//
//ringlint:noalloc
func (p *oracleSplice) setSucc(x, v int) {
	if p.succ.Set(x, int32(v)) {
		p.edited = append(p.edited, x) //ringlint:allow alloc pooled edit log; growth amortizes to zero
	}
}

// emit expresses the current call's surgery as a delta against the ring
// before the call.  The new ring is read from p.ring[0]: the first
// surviving arc's head after a patch, the unchanged first node after a
// heal.  The result is pooled: valid until the next call.
//
//ringlint:noalloc
func (p *oracleSplice) emit() *delta {
	d := &p.out
	d.Start, d.Length = p.ring[0], len(p.ring)
	d.Nodes, d.Succ = d.Nodes[:0], d.Succ[:0]
	for _, x := range p.edited {
		v, _ := p.succ.Get(x)
		d.Nodes = append(d.Nodes, x)    //ringlint:allow alloc pooled delta; growth amortizes to zero
		d.Succ = append(d.Succ, int(v)) //ringlint:allow alloc pooled delta; growth amortizes to zero
	}
	d.Leave, d.Join = p.leave, p.join
	return d
}

// patch cuts one fault batch out of the ring, reconnecting the surviving
// arcs, and logs the cut for emit: each arc tail and bypass interior
// with its new successor, the bypass interiors as joining, the faulty
// ring nodes as leaving.
func (p *oracleSplice) patch(add topology.FaultSet) Outcome {
	p.resetLog()
	if !p.valid || len(p.ring) == 0 {
		return Unsupported
	}
	combined := p.faults.Union(add)
	undirected := topology.Undirected(p.net)
	badNode := nodeSet(combined)
	badEdge := edgeSet(combined)
	edgeCut := func(u, v int) bool {
		if badEdge[topology.Edge{From: u, To: v}] {
			return true
		}
		return undirected && badEdge[topology.Edge{From: v, To: u}]
	}

	k := len(p.ring)
	hit := false
	for i, v := range p.ring {
		if badNode[v] || edgeCut(v, p.ring[(i+1)%k]) {
			hit = true
			break
		}
	}
	if !hit {
		p.faults = combined
		return Noop
	}

	// Cut the ring into surviving arcs, flattened into the pooled
	// segFlat/segEnds pair (segment i is segFlat[segEnds[i-1]:segEnds[i]]).
	// Start the scan just past a severed hop so segments never straddle
	// the wrap-around.
	s := 0
	for i := 0; i < k; i++ {
		prev := p.ring[(i-1+k)%k]
		if badNode[prev] || edgeCut(prev, p.ring[i]) {
			s = i
			break
		}
	}
	p.segFlat = p.segFlat[:0]
	p.segEnds = p.segEnds[:0]
	for j := 0; j < k; j++ {
		v := p.ring[(s+j)%k]
		if badNode[v] {
			p.leave = append(p.leave, v)
			p.closeSeg()
			continue
		}
		p.segFlat = append(p.segFlat, v)
		if next := p.ring[(s+j+1)%k]; !badNode[next] && edgeCut(v, next) {
			p.segEnds = append(p.segEnds, len(p.segFlat))
		}
	}
	p.closeSeg()
	nseg := len(p.segEnds)
	if nseg == 0 {
		p.valid = false
		return Unsupported
	}

	// Reconnect consecutive arcs in ring order: a direct surviving link,
	// or a bypass path through fault-free nodes not already in use.
	// bypass never marks candidates itself — only paths actually woven
	// into the ring are committed to used, so a failed attempt for one
	// cut edge cannot shrink the search space of the next.
	p.used.Reset(p.net.Nodes())
	for _, v := range p.segFlat {
		p.used.Add(v)
	}
	newRing := p.ringNext[:0]
	for gi := 0; gi < nseg; gi++ {
		lo := 0
		if gi > 0 {
			lo = p.segEnds[gi-1]
		}
		seg := p.segFlat[lo:p.segEnds[gi]]
		newRing = append(newRing, seg...)
		ni := (gi + 1) % nseg
		nlo := 0
		if ni > 0 {
			nlo = p.segEnds[ni-1]
		}
		tail, head := seg[len(seg)-1], p.segFlat[nlo]
		path, ok := p.bypass(tail, head, badNode, edgeCut, &p.used)
		if !ok {
			p.valid = false
			return Unsupported
		}
		p.touched++
		for _, x := range path {
			p.used.Add(x)
			p.setSucc(tail, x)
			tail = x
		}
		p.setSucc(tail, head)
		p.join = append(p.join, path...)
		newRing = append(newRing, path...)
	}
	p.ringNext = p.ring
	p.ring = newRing
	// used now holds exactly the new ring's membership (arcs + committed
	// interiors): swap it in as the incremental onRing state for free.
	p.used, p.onRing = p.onRing, p.used
	p.onRingOK = true
	p.faults = combined
	return Patched
}

// closeSeg ends the currently open arc, if any, at len(segFlat).
//
//ringlint:noalloc
func (p *oracleSplice) closeSeg() {
	if n := len(p.segFlat); n > 0 && (len(p.segEnds) == 0 || p.segEnds[len(p.segEnds)-1] < n) {
		p.segEnds = append(p.segEnds, n) //ringlint:allow alloc pooled segment index; growth amortizes to zero
	}
}

// unpatch absorbs healed components.  Healed links are pure
// bookkeeping (the ring never traverses a faulty wire, so nothing needs
// rerouting — but dropping them from the fault set lets later bypasses
// use the restored wire again).  Each healed processor is re-inserted
// between a pair of adjacent ring neighbors: directly when it links
// both — reversing the cut-and-bypass of the original fault — or, the
// multi-hop heal, via a bounded-BFS bypass path through off-ring
// fault-free survivors on one side, which pulls those survivors back
// onto the ring with it.  A healed node with no insertion slot at all
// stays off-ring (the ring remains valid; a later Embed re-balances),
// so unpatch never reports Unsupported for slotless heals alone.
func (p *oracleSplice) unpatch(remove topology.FaultSet) Outcome {
	p.resetLog()
	p.healed = p.healed[:0]
	if !p.valid || len(p.ring) == 0 {
		return Unsupported
	}
	remove = remove.Canonical()
	reduced := p.faults.Minus(remove)
	healed := p.faults.Minus(reduced) // the part of remove actually present
	p.faults = reduced
	p.healed = append(p.healed, healed.Nodes...)
	if len(healed.Nodes) == 0 {
		return Noop
	}

	undirected := topology.Undirected(p.net)
	badEdge := edgeSet(reduced)
	edgeCut := func(u, v int) bool {
		if badEdge[topology.Edge{From: u, To: v}] {
			return true
		}
		return undirected && badEdge[topology.Edge{From: v, To: u}]
	}
	badNode := nodeSet(reduced)
	// The pooled membership set survives from the last event when the
	// ring has not been replaced since; otherwise one rebuild here.
	p.ensureOnRing()

	changed := false
	for _, v := range healed.Nodes {
		if p.onRing.Has(v) {
			// Defensive: a faulty node is never on the ring.
			continue
		}
		if p.insertHealed(v, badNode, edgeCut) {
			changed = true
			p.touched++
		}
	}
	if !changed {
		return Noop
	}
	return Readmitted
}

// insertHealed re-inserts one healed processor v into the ring.  The
// direct slot — a ring hop u→w with surviving wires u→v→w — is the
// exact inverse of a node-fault splice and is tried first.  Failing
// that, the multi-hop heal opens one ring hop u→w into u → v → … → w
// (or u → … → v → w) with the longer side running through off-ring
// fault-free survivors found by the same bounded BFS the fault
// direction uses for bypasses.
func (p *oracleSplice) insertHealed(v int, badNode map[int]bool, edgeCut func(int, int) bool) bool {
	k := len(p.ring)
	for i, u := range p.ring {
		w := p.ring[(i+1)%k]
		if p.net.IsEdge(u, v) && p.net.IsEdge(v, w) && !edgeCut(u, v) && !edgeCut(v, w) {
			p.seqBuf = append(p.seqBuf[:0], v)
			p.insertAfter(i, p.seqBuf)
			return true
		}
	}
	for i, u := range p.ring {
		w := p.ring[(i+1)%k]
		if p.net.IsEdge(u, v) && !edgeCut(u, v) {
			if path, ok := p.bypass(v, w, badNode, edgeCut, &p.onRing); ok {
				p.seqBuf = append(p.seqBuf[:0], v)
				p.seqBuf = append(p.seqBuf, path...)
				p.insertAfter(i, p.seqBuf)
				return true
			}
		}
		if p.net.IsEdge(v, w) && !edgeCut(v, w) {
			if path, ok := p.bypass(u, v, badNode, edgeCut, &p.onRing); ok {
				p.seqBuf = append(p.seqBuf[:0], path...)
				p.seqBuf = append(p.seqBuf, v)
				p.insertAfter(i, p.seqBuf)
				return true
			}
		}
	}
	return false
}

// insertAfter splices seq into the ring after position i — the hop
// u → w becomes u → seq… → w — logging the new successors and joining
// nodes for emit and registering the new members in the incremental
// onRing set (which thereby stays valid across consecutive heal events).
//
//ringlint:noalloc
func (p *oracleSplice) insertAfter(i int, seq []int) {
	old := len(p.ring)
	u, w := p.ring[i], p.ring[(i+1)%old]
	p.ring = append(p.ring, seq...) //ringlint:allow alloc pooled ring buffer; bounded by node count
	copy(p.ring[i+1+len(seq):], p.ring[i+1:old])
	copy(p.ring[i+1:i+1+len(seq)], seq)
	for _, x := range seq {
		p.onRing.Add(x)
		p.setSucc(u, x)
		u = x
	}
	p.setSucc(u, w)
	p.join = append(p.join, seq...) //ringlint:allow alloc pooled edit log; growth amortizes to zero
}

// bypass finds a path from tail to head whose interior avoids faulty and
// already-used nodes, shorter than maxBypassLen hops.  It returns the
// interior nodes (empty for a direct link), valid only until the next
// bypass call.  The search runs entirely on pooled epoch-stamped
// scratch, reset per attempt, and never mutates used — the caller
// commits accepted paths, so one attempt's candidate marks cannot leak
// into the next.
//
//ringlint:noalloc
func (p *oracleSplice) bypass(tail, head int, badNode map[int]bool, edgeCut func(int, int) bool, used *dense.Set) ([]int, bool) {
	if tail == head {
		// A single one-node segment closing on itself needs a self-loop,
		// which no adapter's verification accepts as a ring.
		return nil, false
	}
	//ringlint:allow alloc adapter IsEdge and the edgeCut closure are arithmetic on every in-tree topology
	if p.net.IsEdge(tail, head) && !edgeCut(tail, head) {
		return nil, true
	}
	limit := p.maxBypassLen()
	p.prev.Reset(p.net.Nodes()) //ringlint:allow alloc adapter Nodes is a field read on every in-tree topology
	p.prev.Set(tail, -1)
	p.frontier = append(p.frontier[:0], int32(tail)) //ringlint:allow alloc pooled BFS frontier; growth amortizes to zero
	for depth := 0; depth < limit && len(p.frontier) > 0; depth++ {
		p.nextF = p.nextF[:0]
		for _, u32 := range p.frontier {
			u := int(u32)
			p.succBuf = p.net.Successors(u, p.succBuf) //ringlint:allow alloc adapter contract: Successors fills the caller's buffer in place
			for _, w := range p.succBuf {
				if w == u || edgeCut(u, w) { //ringlint:allow alloc edgeCut closures are arithmetic over captured fault sets
					continue
				}
				if w == head {
					if u == tail {
						continue // direct link already rejected (faulty)
					}
					// Reconstruct the interior path u … tail, reversed.
					path := p.pathBuf[:0]
					for x := u; x != tail; x = int(p.prev.At(x)) {
						path = append(path, x) //ringlint:allow alloc pooled path scratch; growth amortizes to zero
					}
					for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
						path[i], path[j] = path[j], path[i]
					}
					p.pathBuf = path
					return path, true
				}
				if badNode[w] || used.Has(w) || p.prev.Has(w) {
					continue
				}
				p.prev.Set(w, int32(u))
				p.nextF = append(p.nextF, int32(w)) //ringlint:allow alloc pooled BFS frontier; growth amortizes to zero
			}
		}
		p.frontier, p.nextF = p.nextF, p.frontier
	}
	return nil, false
}
