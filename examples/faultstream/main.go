// Online fault streams: the paper's actual operating regime.  Faults do
// not arrive as one batch — processors die one after another while the
// ring keeps carrying traffic, and repaired processors come back.  A
// session absorbs each transition as it happens: a local repair splices
// the dead necklace out of the live ring along surviving shift-edges
// (O(touched stars) work), a heal re-expands the repaired necklace so
// the ring grows back, falling back to a full FFC re-embed only when
// the patch fails or the paper's f ≤ n tolerance is exceeded.  Every
// transition lands in an append-only journal, so a crashed server
// resumes the session with an identical ring.
//
// The same stream can be driven against a running server:
//
//	ringsrv -addr :8080 -journal /tmp/rings &
//	chaos -server http://localhost:8080 -topology 'debruijn(2,10)' \
//	      -events 10 -seed 1991 -record trace.json
//
// cmd/chaos prints the per-event repair-vs-recompute latency and the
// ring-length degradation curve, and the recorded trace.json replays
// byte-identically with -replay.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"os"

	"debruijnring/obs"
	"debruijnring/session"
	"debruijnring/topology"
)

func main() {
	dir, err := os.MkdirTemp("", "faultstream")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The session manager journals every transition under dir and counts
	// repair outcomes in the metrics registry.
	reg := obs.NewRegistry()
	mgr := session.NewManager(reg, session.Options{Dir: dir})
	s, err := mgr.Create("demo", "debruijn(2,10)", topology.FaultSet{})
	if err != nil {
		log.Fatal(err)
	}
	net := s.Network()
	fmt.Printf("B(2,10): initial ring spans all %d processors\n", net.Nodes())

	// Ten processors fail one at a time — the paper's f ≤ n bound for
	// n = 10.  Watch the ring shrink necklace by necklace while every
	// event stays within the dⁿ − nf guarantee.
	rng := rand.New(rand.NewPCG(19, 91))
	var failed []int
	for i := 1; i <= 10; i++ {
		x := rng.IntN(net.Nodes())
		ev, err := s.AddFaults(topology.NodeFaults(x))
		if err != nil {
			log.Fatal(err)
		}
		failed = append(failed, x)
		fmt.Printf("fault %2d at %s: %-7s ring %4d (bound %4d, -%d nodes)\n",
			i, net.Label(x), ev.Repair, ev.RingLength, ev.LowerBound, len(ev.Removed))
	}

	// The lifecycle is bidirectional: repair crews bring half of them
	// back, and each heal re-expands the necklace into the live ring —
	// the bound rises with the shrinking fault count.
	for i, x := range failed[:5] {
		ev, err := s.RemoveFaults(topology.NodeFaults(x))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("heal  %2d at %s: %-7s ring %4d (bound %4d, +%d nodes)\n",
			i+1, net.Label(x), ev.Repair, ev.RingLength, ev.LowerBound, len(ev.Added))
	}

	stats := session.TotalsFrom(reg.Snapshot())
	fmt.Printf("=> %d local repairs, %d re-embeds (patch hit rate %.0f%%); %d local heals (unpatch hit rate %.0f%%)\n",
		stats.LocalRepairs, stats.Reembeds, 100*stats.PatchHitRate,
		stats.LocalHeals, 100*stats.UnpatchHitRate)

	// Kill-and-restore: a second manager pointed at the same journal
	// directory replays the stream to the identical ring.
	mgr.Close()
	mgr2 := session.NewManager(nil, session.Options{Dir: dir})
	restored, errs := mgr2.Restore()
	if len(errs) > 0 {
		log.Fatal(errs[0])
	}
	s2 := restored[0]
	a, b := s.StateSnapshot(false), s2.StateSnapshot(false)
	fmt.Printf("restored %q from its journal: ring hash %s == %s: %v\n",
		s2.Name(), b.RingHash, a.RingHash, a.RingHash == b.RingHash)
}
