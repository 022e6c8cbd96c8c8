package fleet

import (
	"fmt"
	"net/http"
	"sync"
)

// EpochGate serializes control-plane operations (promotion,
// replication re-targeting, rebalance hand-offs) issued by possibly
// dueling routers.  Two ringfleet routers run over the same hash ring
// with no coordination protocol; instead every control operation
// carries an epoch — a router-local monotonic stamp seeded from wall
// time — and each shard admits only strictly increasing epochs.  A
// partitioned or lagging router's stale operation bounces with the
// winning epoch in the 409 body, and the loser adopts the winner's
// state on its next health pass instead of undoing it.
//
// Epoch 0 (or an omitted epoch) is unguarded: manual curl-driven
// operations keep working without bookkeeping, at the operator's risk.
type EpochGate struct {
	mu      sync.Mutex
	current uint64
}

// Admit records epoch if it supersedes the gate's current value and
// reports whether the operation may proceed; the returned value is the
// gate's (possibly just-advanced) current epoch either way.
func (g *EpochGate) Admit(epoch uint64) (current uint64, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if epoch == 0 {
		return g.current, true
	}
	if epoch <= g.current {
		return g.current, false
	}
	g.current = epoch
	return g.current, true
}

// admit is Admit for a control endpoint: a stale epoch is answered 409
// with the gate's epoch, target (the winner's replication target, where
// the operation has one) and "<stale> epoch e (current c)", and reported
// false.
func (g *EpochGate) admit(w http.ResponseWriter, epoch uint64, target, stale string) bool {
	current, ok := g.Admit(epoch)
	if !ok {
		replicaReject(w, current, target, fmt.Errorf("%s epoch %d (current %d)", stale, epoch, current))
	}
	return ok
}

// Current returns the last admitted epoch.
func (g *EpochGate) Current() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.current
}
