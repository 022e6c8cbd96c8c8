package repair

import "debruijnring/topology"

// Patch and Unpatch drive the FFC tier alone, where faults is the
// cumulative fault set before the batch, and read the ring off its
// successor rule: the walk oracle the Patcher's delta path is checked
// against.  Like the Patcher, they hand the tier a canonical batch.
func (p *ffcPatcher) Patch(faults, add topology.FaultSet) ([]int, Outcome) {
	faults, add = faults.Canonical(), add.Canonical()
	return p.materialize(p.patch(add, faults, faults.Union(add)))
}

func (p *ffcPatcher) Unpatch(faults, remove topology.FaultSet) ([]int, Outcome) {
	faults, remove = faults.Canonical(), remove.Canonical()
	return p.materialize(p.unpatch(remove, faults, faults.Minus(remove)))
}

// materialize walks the ring after a ring-changing outcome.
func (p *ffcPatcher) materialize(o Outcome) ([]int, Outcome) {
	if o == Noop || o == Unsupported {
		return nil, o
	}
	ring, ok := p.walk()
	if !ok {
		p.valid = false
		return nil, Unsupported
	}
	return ring, o
}
