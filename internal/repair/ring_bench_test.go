package repair

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"debruijnring/topology"
)

// ringOp is one recorded FFC delta with the fault sets apply checks it
// against.
type ringOp struct {
	d           *delta
	next, fresh topology.FaultSet
	minLen      int
}

// ringSegment is a run of deltas that apply one after another to the
// ring start.
type ringSegment struct {
	start []int
	ops   []ringOp
}

// recordFFCDeltas runs a seeded stream of single-node faults and heals
// (at most four live faults, the BenchmarkSessionEventLarge shape)
// through a Patcher on net until it has recorded want FFC deltas, and
// returns them cut into segments at every re-embed.
func recordFFCDeltas(b *testing.B, net *topology.DeBruijn, want int) []ringSegment {
	p := For(net)
	if _, _, err := p.Embed(topology.FaultSet{}); err != nil {
		b.Fatal(err)
	}
	segs := []ringSegment{{start: p.RingInts()}}
	rng := rand.New(rand.NewSource(1))
	var live []int
	for recorded := 0; recorded < want; {
		heal := len(live) == 4 || (len(live) > 0 && rng.Intn(2) == 0)
		var batch topology.FaultSet
		j := 0
		if heal {
			j = rng.Intn(len(live))
			batch = topology.NodeFaults(live[j])
		} else {
			x := rng.Intn(net.Nodes())
			for slices.Contains(live, x) {
				x = rng.Intn(net.Nodes())
			}
			batch = topology.NodeFaults(x)
		}
		faults := p.Faults()
		next, fresh := faults.Union(batch), batch
		if heal {
			next, fresh = faults.Minus(batch), topology.FaultSet{}
		}
		switch o := p.Step(heal, batch, next); {
		case o == Unsupported:
			if _, _, err := p.Embed(next); err != nil {
				continue // rejected: the fault set stays as it was
			}
			segs = append(segs, ringSegment{start: p.RingInts()})
		case o != Noop && o != Spliced:
			segs[len(segs)-1].ops = append(segs[len(segs)-1].ops,
				ringOp{cloneDelta(&p.ffc.out), next, fresh, LowerBound(net, next)})
			recorded++
		case o == Spliced:
			// The splice tier now owns the ring; its deltas are not the
			// FFC stream this benchmark prices.  Start over from a re-embed.
			if _, _, err := p.Embed(next); err != nil {
				b.Fatal(err)
			}
			segs = append(segs, ringSegment{start: p.RingInts()})
		}
		if heal {
			live = append(live[:j], live[j+1:]...)
		} else {
			live = append(live, batch.Nodes[0])
		}
	}
	return segs
}

// BenchmarkRingApply prices Ring.apply alone on B(2,n) for n = 10, 14
// and 16: one op applies one recorded FFC fault or heal delta to a ring
// carried from op to op, so pieces build up and the ring flattens as it
// would in a session.  The ring is reset, off the clock, only where the
// recorded stream re-embedded or ran out.
func BenchmarkRingApply(b *testing.B) {
	for _, n := range []int{10, 14, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net, err := topology.NewDeBruijn(2, n)
			if err != nil {
				b.Fatal(err)
			}
			segs := recordFFCDeltas(b, net, 2000)
			var r Ring
			seg, op := len(segs)-1, len(segs[len(segs)-1].ops)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for op == len(segs[seg].ops) {
					b.StopTimer()
					seg, op = (seg+1)%len(segs), 0
					r.reset(net.Nodes(), segs[seg].start)
					b.StartTimer()
				}
				o := segs[seg].ops[op]
				if _, ok := r.apply(net, o.d, o.next, o.fresh, o.minLen); !ok {
					b.Fatal("apply rejected a recorded delta")
				}
				op++
			}
		})
	}
}

// spliceEvent is one event of a recorded fault/heal stream: the batch
// and the fault set after it.
type spliceEvent struct {
	heal        bool
	batch, next topology.FaultSet
}

// BenchmarkSpliceEventScaling prices Patcher.Step on the splice tier
// alone, on hypercube(n) for n = 10, 14 and 16: one op is one event of a
// seeded stream of single-node faults and heals, at most two live, that
// ends fault-free and repeats.  No hypercube node fault is spliced (a
// bipartite ring must drop two nodes, and a one-node bypass cannot), so
// the faults decline and re-embed, off the clock; the heals splice the
// healed node back in.  Both kinds scan the ring, so the op cost follows
// the ring's length.
func BenchmarkSpliceEventScaling(b *testing.B) {
	for _, n := range []int{10, 14, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net, err := topology.NewHypercube(n)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			var events []spliceEvent
			var live []int
			var faults topology.FaultSet
			for len(events) < 256 || len(live) > 0 {
				heal := len(live) == 2 || len(events) >= 256 || (len(live) > 0 && rng.Intn(2) == 0)
				ev := spliceEvent{heal: heal}
				if heal {
					j := rng.Intn(len(live))
					ev.batch, ev.next = topology.NodeFaults(live[j]), faults.Minus(topology.NodeFaults(live[j]))
					live = append(live[:j], live[j+1:]...)
				} else {
					x := rng.Intn(net.Nodes())
					for slices.Contains(live, x) {
						x = rng.Intn(net.Nodes())
					}
					ev.batch, ev.next = topology.NodeFaults(x), faults.Union(topology.NodeFaults(x))
					live = append(live, x)
				}
				events, faults = append(events, ev), ev.next
			}
			p := For(net)
			if _, _, err := p.Embed(topology.FaultSet{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := events[i%len(events)]
				if p.Step(ev.heal, ev.batch, ev.next) == Unsupported {
					b.StopTimer()
					if _, _, err := p.Embed(ev.next); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
		})
	}
}
