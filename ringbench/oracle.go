package main

import (
	"fmt"

	"debruijnring/topology"
)

// lowerBound is the paper's guarantee dⁿ − nf for f distinct faulty
// nodes, clamped at 0.
func lowerBound(net *topology.DeBruijn, faults int) int {
	return max(net.Nodes()-net.WordLen()*faults, 0)
}

// strandedNodes counts the healthy nodes of B(2,n) that a fault set cuts
// off from every ring the necklace construction can build.  The paper's
// bound dⁿ − nf charges n nodes per fault for removing its necklace, and
// for d = 2 it formally needs f ≤ d − 2 = 0: removing faulty necklaces
// can disconnect the necklace graph.  The documented case is the
// all-zeros node, whose only neighbours besides itself lie in the
// necklace of 0…01, so one fault there strands it; the same happens to
// the necklace (01)^(n/2) once both necklaces next to it are faulty.  The
// stranded nodes are the healthy-necklace nodes outside the largest
// component of the surviving necklace graph.  For d > 2 nothing is
// stranded.
func strandedNodes(net *topology.DeBruijn, faults []int) int {
	if net.D() != 2 || len(faults) == 0 {
		return 0
	}
	size, n := net.Nodes(), net.WordLen()
	rep := func(x int) int { // smallest rotation: the necklace's id
		r := x
		for i := 1; i < n; i++ {
			x = (x<<1 | x>>(n-1)) & (size - 1)
			r = min(r, x)
		}
		return r
	}
	faulty := make(map[int]bool, len(faults))
	for _, f := range faults {
		faulty[rep(f)] = true
	}
	parent := make([]int, size)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	reps := make([]int, size)
	for x := range reps {
		reps[x] = rep(x)
	}
	healthy := 0
	for x := 0; x < size; x++ {
		if faulty[reps[x]] {
			continue
		}
		healthy++
		for _, y := range []int{2 * x % size, (2*x + 1) % size} {
			if !faulty[reps[y]] {
				parent[find(reps[x])] = find(reps[y])
			}
		}
	}
	comp := make(map[int]int)
	largest := 0
	for x := 0; x < size; x++ {
		if !faulty[reps[x]] {
			r := find(reps[x])
			comp[r]++
			largest = max(largest, comp[r])
		}
	}
	return healthy - largest
}

// checkLength accepts a ring length of at least dⁿ − nf, or short of it
// by no more than the nodes the d = 2 exception strands.
func checkLength(net *topology.DeBruijn, length int, faults []int) error {
	bound := lowerBound(net, len(faults))
	if length >= bound || length >= bound-strandedNodes(net, faults) {
		return nil
	}
	return fmt.Errorf("ring length %d below bound %d (faults %v)", length, bound, faults)
}

// checkRing verifies that ring is a fault-free cycle of net avoiding
// faults and that it meets the length bound.
func checkRing(net *topology.DeBruijn, ring []int, faults []int) error {
	if !topology.VerifyRing(net, ring, topology.NodeFaults(faults...)) {
		return fmt.Errorf("ring of %d nodes is not a fault-free cycle (faults %v)", len(ring), faults)
	}
	return checkLength(net, len(ring), faults)
}

// parseRing maps ring labels back to node ids.
func parseRing(net *topology.DeBruijn, labels []string) ([]int, error) {
	ring := make([]int, len(labels))
	for i, l := range labels {
		v, err := net.Parse(l)
		if err != nil {
			return nil, err
		}
		ring[i] = v
	}
	return ring, nil
}
