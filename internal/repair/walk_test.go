package repair

import "debruijnring/topology"

// Patch and Unpatch drive the FFC tier alone and read the ring off its
// successor rule: the walk oracle the Patcher's delta path is checked
// against.
func (p *ffcPatcher) Patch(add topology.FaultSet) ([]int, Outcome) {
	return p.materialize(p.patch(add))
}

func (p *ffcPatcher) Unpatch(remove topology.FaultSet) ([]int, Outcome) {
	return p.materialize(p.unpatch(remove))
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
