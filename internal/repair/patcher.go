package repair

import (
	"fmt"
	"time"

	"debruijnring/topology"
)

// Patcher owns one ring and the repair ladder that keeps it valid while
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
// Either tier answers with a delta, which the Patcher applies to its
// Ring in place and proves valid from the seams it touched (Ring.apply).
// A batch changes the ring only when its delta passes; on any other
// outcome the ring and fault set are untouched, and the caller re-embeds
// with Embed.
//
// The Patcher's ring and fault set are the only copies: the splice tier
// keeps neither, and reads both on every call.  Once the splice tier has
// modified a chain's ring, the FFC tier's structures no longer describe
// it, so every later batch goes straight to the splice tier until the
// next successful Embed — at which point the FFC tier re-adopts the ring
// and the ladder resets.  All decisions are deterministic, so journal
// replay retraces the exact tier sequence.
type Patcher struct {
	net    topology.RingEmbedder
	ffc    *ffcPatcher // nil off De Bruijn: the splice tier runs alone
	splice *genericPatcher

	// spliceOwns marks that the splice tier last modified a chain's ring
	// (the FFC tier is stale until the next successful Embed).
	spliceOwns bool

	ring   Ring
	faults topology.FaultSet
	diff   Diff

	// trace holds the tier ladder of the most recent Step for LastTrace.
	trace []TierStep
}

// For returns the Patcher suited to net: the FFC-structural/splice
// chain for De Bruijn networks, the splice tier alone otherwise.  Embed
// (or Restore) installs its first ring.
func For(net topology.RingEmbedder) *Patcher {
	p := &Patcher{net: net, splice: &genericPatcher{net: net}}
	if db, ok := net.(*topology.DeBruijn); ok {
		p.ffc = newFFCPatcher(db)
	}
	return p
}

// LowerBound is the paper's dⁿ − nf guarantee for a De Bruijn network
// under the canonical fault set f (f counts deduplicated node faults),
// clamped at 0 when vacuous.  Other topologies guarantee no length here
// (their bounds live on their own embed info), so it is 0 for them.
func LowerBound(net topology.Network, f topology.FaultSet) int {
	db, ok := net.(*topology.DeBruijn)
	if !ok {
		return 0
	}
	return max(db.Nodes()-db.WordLen()*len(f.Nodes), 0)
}

// RingLen returns the owned ring's length.
func (p *Patcher) RingLen() int { return p.ring.k }

// AppendRing appends the owned ring's node ids to dst, in ring order,
// in one pass.
func (p *Patcher) AppendRing(dst []int32) []int32 { return p.ring.appendTo(dst) }

// RingInts returns a copy of the owned ring as []int.
func (p *Patcher) RingInts() []int { return p.ring.ints() }

// RingHash returns the owned ring's hash: the sum mod 2⁶⁴ of a
// SplitMix64-mixed hash of each directed hop v → succ(v).  It does not
// depend on where the sequence starts.  Embed and Restore compute it in
// one pass over the ring; a local repair moves it by the hops its delta
// rewrote.
func (p *Patcher) RingHash() uint64 { return p.ring.hash }

// Faults returns the cumulative canonical fault set the ring avoids.
func (p *Patcher) Faults() topology.FaultSet { return p.faults }

// Diff reports the nodes the most recent Step or Embed removed from the
// ring and added to it (empty when that call left the ring unchanged).
func (p *Patcher) Diff() Diff { return p.diff }

// LastTrace returns the tier steps of the most recent Step, in descent
// order.  The slice is owned by the Patcher and valid until its next
// call.
func (p *Patcher) LastTrace() []TierStep { return p.trace }

// traceStep appends one tier attempt to the current call's trace.
func (p *Patcher) traceStep(tier string, o Outcome, touched int, start time.Time) {
	//ringlint:allow time trace-only timing; Elapsed is diagnostic, never replayed or hashed
	p.trace = append(p.trace, TierStep{Tier: tier, Outcome: o, Touched: touched, Elapsed: time.Since(start)})
}

// Embed performs a full re-embed for the cumulative fault set f and
// installs the ring as a full replacement, resetting the ladder; Diff
// then reports what changed against the previous ring.  It is also the
// initial embedding of a session.  A rejected fault set mutates nothing:
// the previous ring, fault set and tier state stay patchable.
func (p *Patcher) Embed(f topology.FaultSet) ([]int, *topology.EmbedInfo, error) {
	var ring []int
	var info *topology.EmbedInfo
	var err error
	if p.ffc != nil {
		ring, info, err = p.ffc.Embed(f)
	} else {
		ring, info, err = p.net.EmbedRing(f)
	}
	if err != nil {
		return nil, nil, err
	}
	// Dilation-2 closed walks revisit nodes, so splice surgery does not
	// apply to them.
	p.splice.valid = info.Dilation <= 1 && len(ring) <= p.net.Nodes()
	p.spliceOwns = false
	p.diff = p.ring.replace(p.net.Nodes(), ring)
	p.faults = f.Canonical()
	return ring, info, nil
}

// Patch absorbs a batch of newly failed components by local repair: Step
// plus a copy of the ring.  On Patched, Reordered or Spliced the
// returned ring is the repaired one; on Noop (ring unchanged) and
// Unsupported (re-Embed) it is nil.
func (p *Patcher) Patch(add topology.FaultSet) ([]int, Outcome) {
	return p.stepCopy(false, add, p.faults.Union(add))
}

// Unpatch absorbs a batch of healed components — faults leaving the
// cumulative set — by local repair, growing the ring back toward the
// fault-free embedding; like Patch, with Readmitted or Spliced as the
// ring-changing outcomes.
func (p *Patcher) Unpatch(remove topology.FaultSet) ([]int, Outcome) {
	return p.stepCopy(true, remove, p.faults.Minus(remove))
}

func (p *Patcher) stepCopy(heal bool, batch, next topology.FaultSet) ([]int, Outcome) {
	o := p.Step(heal, batch, next)
	if o == Noop || o == Unsupported {
		return nil, o
	}
	return p.ring.ints(), o
}

// Step runs the ladder for one fault (heal false) or heal batch.  next
// is the cumulative fault set after it: Faults() plus batch for a fault,
// minus batch for a heal.  On a ring-changing outcome the ring was
// changed in place and Diff reports how; on Noop only the fault set
// moved to next; on Unsupported nothing changed and the caller must
// Embed(next).  A batch with out-of-range coordinates is Unsupported
// before any tier sees it, so bad input never poisons tier state.
func (p *Patcher) Step(heal bool, batch, next topology.FaultSet) Outcome {
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
func (p *Patcher) validBatch(f topology.FaultSet) bool {
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
func (p *Patcher) ladder(heal bool, batch, next, fresh topology.FaultSet) Outcome {
	minLen := LowerBound(p.net, next)
	if p.ffc != nil && !p.spliceOwns {
		start := time.Now() //ringlint:allow time trace-only timing
		var o Outcome
		if heal {
			o = p.ffc.unpatch(batch)
		} else {
			o = p.ffc.patch(batch)
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
	if p.ffc != nil {
		// A chain's ring is always a simple cycle (an FFC embed, a
		// restore checked for repeats, or an applied delta), and a batch
		// the splice tier declined left it untouched, so the tier may
		// splice it again.  Its bit, cleared by that decline, is what a
		// snapshot taken before the next attempt records.
		sp.valid = true
	}
	var o Outcome
	if heal {
		o = sp.unpatch(&p.ring, p.faults, next)
	} else {
		o = sp.patch(&p.ring, next)
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
// caller regrow the ring via Embed.  A healed processor was faulty, so
// off the ring: it is back on exactly when the heal gave it a successor.
func (p *Patcher) chainOutcome(heal bool, o Outcome) Outcome {
	switch {
	case o == Patched:
		return Spliced
	case o == Readmitted:
		for _, v := range p.splice.healed {
			if !p.splice.succ.Has(v) {
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
func (p *Patcher) apply(d *delta, next, fresh topology.FaultSet, minLen int) bool {
	diff, ok := p.ring.apply(p.net, d, next, fresh, minLen)
	if ok {
		p.diff = diff
	}
	return ok
}

// State is a Patcher snapshot in the form journals carry it.  A chain
// names the tier that owns the ring, "ffc" or "splice", and nests that
// tier's state under State; the splice tier alone (off De Bruijn) is
// stored bare, as were FFC snapshots from before the chain.  State has
// no MarshalJSON, so a journal line encodes it in the same pass as the
// rest of its event.
type State struct {
	Tier  string     `json:"tier,omitempty"`
	State *TierState `json:"state,omitempty"`
	TierState
}

// TierState is one tier's snapshot: at most one of the two is set.
type TierState struct {
	*FFCState
	*SpliceState
}

// Snapshot returns the state needed to resume patching after a
// restart, and whether Restore can regenerate the ring from it alone.
// Only a valid FFC tier can — its successor rule is the ring — so for a
// splice-owned chain, a chain whose FFC tier is stale and every other
// topology the caller must persist the ring too.  A nil State is
// valid: Restore(nil, ring, …) rebuilds only what (ring, faults) alone
// support — the chain can still splice the restored ring, while
// structural surgery declines until the next Embed.
func (p *Patcher) Snapshot() (st *State, regenerates bool) {
	if p.ffc == nil {
		return &State{TierState: TierState{SpliceState: p.splice.snapshot()}}, false
	}
	if p.spliceOwns {
		return &State{Tier: "splice", State: &TierState{SpliceState: p.splice.snapshot()}}, false
	}
	if f := p.ffc.snapshot(); f != nil {
		return &State{Tier: "ffc", State: &TierState{FFCState: f}}, true
	}
	return nil, false
}

// Restore reinstates a snapshot taken at the cumulative fault set f,
// and installs the ring and f.  ring is the ring the snapshot was taken
// at; an empty one asks the FFC tier to regenerate it from st, with one
// walk of its successor rule after auditing its tree and overrides.
// Every node must be in range, and no node may repeat unless st records
// an unsplicable embedding off De Bruijn (a dilation-2 closed walk,
// which revisits nodes).  A chain's ring is always a simple cycle, so
// there its recorded bit only says the last splice declined.  On error
// neither the ring nor the fault set is installed.
func (p *Patcher) Restore(st *State, ring []int, f topology.FaultSet) error {
	f = f.Canonical()
	nodes := p.net.Nodes()
	splicable := st.tier().splicable()
	simple := splicable || p.ffc != nil
	seen := make([]uint64, (nodes+63)/64)
	for _, v := range ring {
		if v < 0 || v >= nodes {
			return fmt.Errorf("repair: restored ring node %d out of range", v)
		}
		if simple && seen[v>>6]&(1<<(v&63)) != 0 {
			return fmt.Errorf("repair: restored ring repeats node %d", v)
		}
		seen[v>>6] |= 1 << (v & 63)
	}
	if p.ffc != nil {
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
	p.splice.valid = splicable
	return nil
}

// tier returns the tier state st carries: nested under State on a
// chain, bare for the splice tier alone and for FFC snapshots recorded
// before the chain.
func (st *State) tier() TierState {
	if st == nil {
		return TierState{}
	}
	if st.Tier != "" && st.State != nil {
		return *st.State
	}
	return st.TierState
}

// splicable reports whether the state allows splicing: all but a splice
// snapshot of a dilation-2 walk do.
func (ts TierState) splicable() bool {
	return ts.SpliceState == nil || ts.SpliceState.Splicable
}

// restoreChain restores a chain's owning tier and returns the ring to
// install: ring itself, or the FFC tier's walk when ring is empty.
func (p *Patcher) restoreChain(st *State, ring []int, f topology.FaultSet) ([]int, error) {
	p.spliceOwns = false
	if st == nil {
		// The FFC tier is stale and declines until the next Embed; the
		// splice tier needs only (ring, faults) — the same state a live
		// chain is in right after the FFC tier invalidates.
		p.ffc.valid = false
		return ring, nil
	}
	switch st.Tier {
	case "splice":
		p.spliceOwns = true
		return ring, nil
	case "ffc", "":
		return p.ffc.restore(st.tier().FFCState, ring, f)
	}
	return nil, fmt.Errorf("repair: unknown chain snapshot tier %q", st.Tier)
}
