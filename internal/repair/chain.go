package repair

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"debruijnring/topology"
)

// chainPatcher layers the two repair tiers for De Bruijn sessions into
// a single Patcher: the FFC structural tier first, and whenever it
// returns Unsupported — root-necklace loss (including the root-fault
// and root-necklace-exit-link cases that used to always recompute),
// non-spanning survivor graphs, unreorderable stars, failed reattach —
// the generic splice tier attempts a local bypass repair of the live
// ring before the session pays for a cold re-embed.  The resulting
// repair ladder is
//
//	FFC surgery (~O(touched stars)) → splice bypass (~O(ring)) → re-embed (O(dⁿ))
//
// with each tier declining to the next.  Splice-tier results are
// reported as Spliced so sessions can journal (and stats can count)
// which tier resolved each event.
//
// The splice tier is synchronized lazily, from the caller's ring and
// fault set, the first time the FFC tier declines.  Once the splice
// tier has modified the ring, the FFC tier's structures no longer
// describe it, so the chain routes every later call straight to the
// splice tier until the next successful Embed — at which point the FFC
// tier re-adopts the ring and the ladder resets.  All decisions are
// deterministic, so journal replay retraces the exact tier sequence.
type chainPatcher struct {
	ffc    *ffcPatcher
	splice *genericPatcher

	// standalone marks a chain built by For, whose callers use the
	// plain Patch/Unpatch contract and hold no ring: for them the chain
	// keeps the last ring it returned and the cumulative canonical fault
	// set in ring/faults.  Chains built by ForRing leave both empty.
	standalone bool
	ring       []int32
	faults     topology.FaultSet

	// spliceOwns marks that the splice tier last modified the ring (the
	// FFC tier is stale until the next successful Embed).
	spliceOwns bool

	// trace holds the tier ladder of the most recent Patch/Unpatch for
	// LastTrace (session repair traces).
	trace []TierStep
}

// LastTrace implements Tracer: the tier steps of the most recent
// Patch/Unpatch, in descent order.
func (c *chainPatcher) LastTrace() []TierStep { return c.trace }

// traceStep appends one tier attempt to the current call's trace.
func (c *chainPatcher) traceStep(tier string, o Outcome, touched int, start time.Time) {
	//ringlint:allow time trace-only timing; Elapsed is diagnostic, never replayed or hashed
	c.trace = append(c.trace, TierStep{Tier: tier, Outcome: o, Touched: touched, Elapsed: time.Since(start)})
}

func newChainPatcher(t *topology.DeBruijn) *chainPatcher {
	return &chainPatcher{ffc: newFFCPatcher(t), splice: &genericPatcher{net: t}}
}

func (c *chainPatcher) Embed(f topology.FaultSet) ([]int, *topology.EmbedInfo, error) {
	ring, info, err := c.ffc.Embed(f)
	if err != nil {
		// Nothing to adopt; the previous state (and tier ownership)
		// survives a rejected embed.
		return nil, nil, err
	}
	c.keep(ring, f.Canonical())
	c.spliceOwns = false
	return ring, info, nil
}

// keep records the ring and fault set a standalone chain's next call
// starts from.
func (c *chainPatcher) keep(ring []int, f topology.FaultSet) {
	if c.standalone {
		c.ring = c.ring[:0]
		for _, v := range ring {
			c.ring = append(c.ring, int32(v))
		}
		c.faults = f
	}
}

// validBatch mirrors the session's input validation: a batch with
// out-of-range coordinates is rejected before either tier sees it, so
// bad input can never poison healthy tier state.
func (c *chainPatcher) validBatch(f topology.FaultSet) bool {
	size := c.ffc.g.Size
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

// syncSplice points the splice tier at the caller's ring and fault set,
// rebuilding its state unless it already holds exactly that pair (as it
// does right after an accepted splice).  Comparing instead of trusting a
// flag means a splice result the caller rejected never leaks into a
// later event.  Restore(nil, …) re-checks node distinctness, so a
// corrupted ring can never be spliced.
func (c *chainPatcher) syncSplice(cur []int32, faults topology.FaultSet) bool {
	sp := c.splice
	same := sp.valid && len(sp.ring) == len(cur) &&
		slices.Equal(sp.faults.Nodes, faults.Nodes) && slices.Equal(sp.faults.Edges, faults.Edges)
	for i := 0; same && i < len(cur); i++ {
		same = sp.ring[i] == int(cur[i])
	}
	if !same {
		ring := make([]int, len(cur))
		for i, v := range cur {
			ring[i] = int(v)
		}
		if err := sp.Restore(nil, ring, faults); err != nil {
			return false
		}
	}
	return sp.valid
}

func (c *chainPatcher) Patch(add topology.FaultSet) ([]int, Outcome) {
	return c.standaloneStep(add, false)
}

func (c *chainPatcher) Unpatch(remove topology.FaultSet) ([]int, Outcome) {
	return c.standaloneStep(remove, true)
}

// standaloneStep serves the plain Patch/Unpatch contract from the
// chain's own ring copy, materializing the FFC tier's result by walking
// the successor rule.
func (c *chainPatcher) standaloneStep(batch topology.FaultSet, heal bool) ([]int, Outcome) {
	ch, o := c.run(c.ring, c.faults, batch, heal, true)
	if o == Unsupported {
		return nil, o
	}
	if heal {
		c.faults = c.faults.Minus(batch)
	} else {
		c.faults = c.faults.Union(batch)
	}
	if ch.Ring != nil {
		c.keep(ch.Ring, c.faults)
	}
	return ch.Ring, o
}

// PatchRing implements RingPatcher: the FFC tier answers with a Delta.
func (c *chainPatcher) PatchRing(cur []int32, faults, add topology.FaultSet) (Change, Outcome) {
	return c.run(cur, faults, add, false, false)
}

// UnpatchRing implements RingPatcher, like PatchRing.
func (c *chainPatcher) UnpatchRing(cur []int32, faults, remove topology.FaultSet) (Change, Outcome) {
	return c.run(cur, faults, remove, true, false)
}

// run descends the ladder for one fault (heal=false) or heal batch on
// top of the ring cur and the cumulative faults.  walk selects how an
// FFC result is reported: the walked ring, or a Delta against cur.
func (c *chainPatcher) run(cur []int32, faults, batch topology.FaultSet, heal, walk bool) (Change, Outcome) {
	c.trace = c.trace[:0]
	batch = batch.Canonical()
	if !c.validBatch(batch) {
		return Change{}, Unsupported
	}
	if !c.spliceOwns {
		start := time.Now() //ringlint:allow time trace-only timing
		var o Outcome
		if heal {
			o = c.ffc.unpatch(batch)
		} else {
			o = c.ffc.patch(batch)
		}
		var ch Change
		switch {
		case o == Noop || o == Unsupported:
		case walk:
			ch.Ring, o = c.ffc.materialize(o)
		default:
			ch.Delta = c.ffc.delta()
		}
		c.traceStep("ffc", o, c.ffc.touched, start)
		if o != Unsupported {
			return ch, o
		}
		// The FFC tier declined; its bookkeeping may not include this
		// batch, but it is now invalid (or permanently non-spanning) and
		// declines everything until the next Embed, so (cur, faults) is
		// the single source of truth for the splice tier below.
	}
	start := time.Now() //ringlint:allow time trace-only timing
	if !c.syncSplice(cur, faults) {
		c.traceStep("splice", Unsupported, 0, start)
		return Change{}, Unsupported
	}
	if !heal {
		r, o := c.splice.Patch(batch)
		c.traceStep("splice", o, c.splice.touched, start)
		switch o {
		case Patched:
			c.spliceOwns = true
			return Change{Ring: r}, Spliced
		case Noop:
			return Change{}, Noop
		}
		return Change{}, Unsupported
	}
	healed := faults.Minus(faults.Minus(batch)) // the part of batch actually present
	r, o := c.splice.Unpatch(batch)
	c.traceStep("splice", o, c.splice.touched, start)
	switch o {
	case Readmitted:
		// Accept only complete re-admissions: a splice heal that leaves
		// healed processors off-ring would silently freeze the ring short
		// of what a re-embed restores, so partial heals decline and let
		// the session regrow via Embed.  The splice tier's pooled
		// membership set is current right after its Unpatch, so the check
		// costs no allocation (validBatch already range-checked v).
		for _, v := range healed.Nodes {
			if !c.splice.onRingHas(v) {
				return Change{}, Unsupported
			}
		}
		c.spliceOwns = true
		return Change{Ring: r}, Spliced
	case Noop:
		if len(healed.Nodes) > 0 {
			// Healed processors found no insertion slot: decline so the
			// session re-embeds and the ring grows back.
			return Change{}, Unsupported
		}
		return Change{}, Noop
	}
	return Change{}, Unsupported
}

// chainState wraps the owning tier's snapshot so Restore rebuilds the
// right tier.  Journals from before the chain carry a bare ffcState (no
// "tier" key) and restore as the FFC tier.
type chainState struct {
	Tier  string          `json:"tier"`
	State json.RawMessage `json:"state,omitempty"`
}

func (c *chainPatcher) Snapshot() ([]byte, error) {
	if c.spliceOwns {
		st, err := c.splice.Snapshot()
		if err != nil {
			return nil, err
		}
		return json.Marshal(chainState{Tier: "splice", State: st})
	}
	st, err := c.ffc.Snapshot()
	if err != nil || st == nil {
		return nil, err
	}
	return json.Marshal(chainState{Tier: "ffc", State: st})
}

func (c *chainPatcher) Restore(state []byte, ring []int, f topology.FaultSet) error {
	f = f.Canonical()
	c.keep(ring, f)
	c.spliceOwns = false
	if len(state) == 0 {
		// Both tiers stale: the FFC tier declines until the next Embed
		// and the splice tier resyncs lazily from (ring, faults) — the
		// same state a live chain is in right after the FFC tier
		// invalidates.
		return nil
	}
	var st chainState
	if err := json.Unmarshal(state, &st); err != nil {
		return fmt.Errorf("repair: bad chain snapshot: %w", err)
	}
	switch st.Tier {
	case "splice":
		if err := c.splice.Restore(st.State, ring, f); err != nil {
			return err
		}
		if !c.splice.valid {
			return fmt.Errorf("repair: splice snapshot restored to an unsplicable ring")
		}
		c.spliceOwns = true
		return nil
	case "ffc":
		return c.ffc.Restore(st.State, ring, f)
	case "":
		// Legacy snapshot: a bare ffcState recorded before the chain.
		return c.ffc.Restore(state, ring, f)
	}
	return fmt.Errorf("repair: unknown chain snapshot tier %q", st.Tier)
}
