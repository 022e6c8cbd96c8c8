package ffc_test

import (
	"sync"
	"testing"

	"debruijnring/internal/debruijn"
	"debruijnring/internal/ffc"
	"debruijnring/internal/repair"
	"debruijnring/topology"
)

// TestEmbeddersShareBase pins the fault-free base to one per graph:
// the topology adapter's pooled embedders, a session's patcher, the
// one-shot Embed and directly built embedders all derive from the
// graph's one base instead of building their own.
func TestEmbeddersShareBase(t *testing.T) {
	net, err := topology.NewDeBruijn(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph()
	before := ffc.BaseBuilds()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ { // concurrent calls draw distinct pooled embedders
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := net.EmbedRing(topology.NodeFaults(100 + i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if _, _, err := repair.For(net).Embed(topology.NodeFaults(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := ffc.Embed(g, []int{9}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := ffc.NewEmbedder(g).Embed([]int{11}); err != nil {
			t.Fatal(err)
		}
	}
	if built := ffc.BaseBuilds() - before; built != 1 {
		t.Fatalf("embedders on one graph built %d bases, want 1", built)
	}
	if _, err := ffc.Embed(debruijn.New(2, 9), []int{9}); err != nil {
		t.Fatal(err)
	}
	if built := ffc.BaseBuilds() - before; built != 2 {
		t.Fatalf("a second graph brought the base count to %d, want 2", built)
	}
}
