package session

import (
	"fmt"
	"runtime"
	"testing"

	"debruijnring/topology"
)

// sessionFootprint returns the heap that k more journal-less B(2,16)
// sessions on m hold after GC, one node fault each, per session.  The
// per-graph tables the sessions share (necklace representatives, the
// fault-free embedding) are built by a first session before the
// measurement starts.
func sessionFootprint(tb testing.TB, m *Manager, k int) uint64 {
	tb.Helper()
	create := func(i int) {
		s, err := m.Create(fmt.Sprintf("fp%d", i), "debruijn(2,16)", topology.FaultSet{})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := s.AddFaults(topology.NodeFaults(1000 + 7919*i)); err != nil {
			tb.Fatal(err)
		}
	}
	create(0)
	heap := func() uint64 {
		// Two cycles: the second empties the embedder pool's victim cache.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 1; i <= k; i++ {
		create(i)
	}
	return (max(heap(), before) - before) / uint64(k)
}

// TestSessionFootprint pins the heap a journal-less B(2,16) session
// holds once its first fault is repaired: its ring (a piece table of
// about 800 KiB) and the FFC tier's edits to the shared fault-free
// embedding.  It measured ~822 KiB on go1.24/amd64; before the tier's
// tables became overlays on the shared embedding and its embedder came
// from the per-graph pool, a session held ~2.2 MiB.
func TestSessionFootprint(t *testing.T) {
	m := NewManager(nil, Options{})
	defer m.Close()
	if per := sessionFootprint(t, m, 8); per > 1<<20 {
		t.Fatalf("a B(2,16) session holds %d KiB of heap, want at most 1024 KiB", per>>10)
	}
}
