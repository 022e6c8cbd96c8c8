package ffc_test

import (
	"sync"
	"testing"

	"debruijnring"
	"debruijnring/internal/debruijn"
	"debruijnring/internal/ffc"
	"debruijnring/internal/repair"
	"debruijnring/topology"
)

// TestEmbeddersShareBase pins the fault-free base to one per graph and
// the one-shot callers to one embedder pool per graph: the topology
// adapter, the root API (EmbedRing, and EmbedRingDistributed, which
// embeds for its root), the one-shot EmbedDiff and EmbedCycle and a
// session's patcher (EmbedDiff) all draw from the graph's pool, and
// they and directly built embedders all derive from the graph's one
// base instead of building their own.
func TestEmbeddersShareBase(t *testing.T) {
	root, err := debruijnring.New(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	net := root.Network()
	g := net.Graph()
	before, draws := ffc.BaseBuilds(), ffc.PoolDraws(g)
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
	if _, _, err := root.EmbedRing([]int{3}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := root.EmbedRingDistributed([]int{3}); err != nil {
		t.Fatal(err)
	}
	if _, err := ffc.EmbedDiff(g, []int{9}); err != nil {
		t.Fatal(err)
	}
	if _, err := ffc.EmbedCycle(g, []int{9}); err != nil {
		t.Fatal(err)
	}
	if got := ffc.PoolDraws(g) - draws; got != 8 {
		t.Fatalf("the graph's embedder pool served %d of 8 one-shot embeds", got)
	}
	if _, _, err := repair.For(net).Embed(topology.NodeFaults(7)); err != nil {
		t.Fatal(err)
	}
	if got := ffc.PoolDraws(g) - draws; got != 9 {
		t.Fatalf("a session's patcher did not draw its embedder from the pool (%d draws)", got)
	}
	for i := 0; i < 2; i++ {
		if _, err := ffc.NewEmbedder(g).EmbedCycle([]int{11}); err != nil {
			t.Fatal(err)
		}
	}
	if built := ffc.BaseBuilds() - before; built != 1 {
		t.Fatalf("embedders on one graph built %d bases, want 1", built)
	}
	if _, err := ffc.EmbedCycle(debruijn.New(2, 9), []int{9}); err != nil {
		t.Fatal(err)
	}
	if built := ffc.BaseBuilds() - before; built != 2 {
		t.Fatalf("a second graph brought the base count to %d, want 2", built)
	}
}
