package main

import (
	"testing"

	"debruijnring/topology"
)

func TestOracleRejectsCorruptRing(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 8)
	faults := []int{37}
	ring, _, err := net.EmbedRing(topology.NodeFaults(faults...))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRing(net, ring, faults); err != nil {
		t.Fatalf("valid ring rejected: %v", err)
	}
	bad := append([]int(nil), ring...)
	bad[3], bad[4] = bad[4], bad[3]
	if checkRing(net, bad, faults) == nil {
		t.Error("ring with two nodes swapped accepted")
	}
	if checkRing(net, append(append([]int(nil), ring...), faults[0]), faults) == nil {
		t.Error("ring through a faulty node accepted")
	}
}

func TestOracleOneShortOnlyInsideD2Exception(t *testing.T) {
	b28, _ := topology.NewDeBruijn(2, 8)
	b210, _ := topology.NewDeBruijn(2, 10)
	b34, _ := topology.NewDeBruijn(3, 4)
	for _, c := range []struct {
		name   string
		net    *topology.DeBruijn
		faults []int
		short  int // below dⁿ − nf
		ok     bool
	}{
		{"no exception", b28, []int{37}, 1, false},
		{"node 1 strands the all-zeros node", b28, []int{1}, 1, true},
		{"stranded node allows one, not two", b28, []int{1}, 2, false},
		{"0111…1 strands the all-ones node", b28, []int{127}, 1, true},
		{"faulty all-zeros node strands nothing", b28, []int{0, 1}, 1, false},
		{"(01)^5 cut off by both neighbours", b210, []int{459, 170, 349}, 2, true},
		{"(01)^5 case allows two, not three", b210, []int{459, 170, 349}, 3, false},
		{"d = 3 has no exception", b34, []int{1}, 1, false},
	} {
		length := lowerBound(c.net, len(c.faults)) - c.short
		if err := checkLength(c.net, length, c.faults); (err == nil) != c.ok {
			t.Errorf("%s: length %d accepted=%v, want %v (%v)", c.name, length, err == nil, c.ok, err)
		}
	}
	// The exception is real: the cold embed of B(2,8) around node 1
	// leaves the all-zeros node out.
	ring, _, err := b28.EmbedRing(topology.NodeFaults(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRing(b28, ring, []int{1}); err != nil {
		t.Errorf("cold embed around node 1 rejected: %v", err)
	}
}
