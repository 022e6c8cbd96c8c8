package ffc

import (
	"math/rand/v2"
	"strings"
	"testing"
	"time"
)

// newTestRNG gives tests a deterministic source.
func newTestRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 0xdeadbeef))
}

// TestSimulateTable21Shape reproduces the qualitative content of Table 2.1
// (B(2,10)): with no faults the component is the whole 1024-node graph with
// eccentricity 10; for small f the average size tracks dⁿ − nf from above;
// sizes never fall below the largest-component lower bound observed by the
// paper; eccentricities stay O(n).
func TestSimulateTable21Shape(t *testing.T) {
	rows := Simulate(2, 10, []int{0, 1, 2, 5, 10}, 200, 1)
	r0 := rows[0]
	if r0.AvgSize != 1024 || r0.MaxSize != 1024 || r0.MinSize != 1024 {
		t.Errorf("f=0 row: %+v, want exact 1024", r0)
	}
	if r0.AvgEcc != 10 || r0.MaxEcc != 10 || r0.MinEcc != 10 {
		t.Errorf("f=0 eccentricity row: %+v, want exact 10 (the diameter n)", r0)
	}
	for _, row := range rows[1:] {
		// For f beyond d−2 the bound dⁿ−nf is no longer guaranteed, but the
		// paper's data tracks it within a few nodes; allow n of slack on the
		// average and 3n on the minimum (Table 2.1 itself dips 2 below the
		// bound at f=5).
		if row.AvgSize < float64(row.Bound-10) {
			t.Errorf("f=%d: avg size %.2f far below bound %d", row.F, row.AvgSize, row.Bound)
		}
		if row.MaxSize > 1024-row.F {
			t.Errorf("f=%d: max size %d impossible (> dⁿ − f)", row.F, row.MaxSize)
		}
		if row.MinSize < row.Bound-3*10 {
			t.Errorf("f=%d: min size %d far below bound %d", row.F, row.MinSize, row.Bound)
		}
		if row.MaxEcc > 4*10 {
			t.Errorf("f=%d: eccentricity %d not O(n)", row.F, row.MaxEcc)
		}
	}
	// Sizes strictly decrease with f on average.
	for i := 1; i < len(rows); i++ {
		if rows[i].AvgSize >= rows[i-1].AvgSize {
			t.Errorf("avg size not decreasing: f=%d %.2f, f=%d %.2f",
				rows[i-1].F, rows[i-1].AvgSize, rows[i].F, rows[i].AvgSize)
		}
	}
}

// TestSimulateTable22Shape mirrors Table 2.2 (B(4,5)): f=0 gives the full
// graph with eccentricity 5; with one fault the component always has
// exactly 1019 nodes (every necklace of B(4,5) has length 5 and the graph
// stays connected, d−2 = 2 ≥ 1).
func TestSimulateTable22Shape(t *testing.T) {
	rows := Simulate(4, 5, []int{0, 1, 2}, 150, 2)
	if rows[0].AvgSize != 1024 || rows[0].AvgEcc != 5 {
		t.Errorf("f=0 row: %+v", rows[0])
	}
	r1 := rows[1]
	if r1.MinSize != 1019 || r1.MaxSize != 1019 {
		t.Errorf("f=1 component must always have 1019 nodes, got min %d max %d", r1.MinSize, r1.MaxSize)
	}
	// Eccentricity with one fault is at most 2n = 10 (Proposition 2.2);
	// Table 2.2 observes max 6.
	if r1.MaxEcc > 10 {
		t.Errorf("f=1 eccentricity %d > 2n", r1.MaxEcc)
	}
	r2 := rows[2]
	if r2.MinSize < 1024-5*2 {
		t.Errorf("f=2: min size %d below d−2 guarantee %d", r2.MinSize, 1024-10)
	}
}

// TestDeadNodeAttribution verifies the paper's explanation for the excess
// of the average component size over dⁿ − nf: the true loss is the dead-
// necklace node count, which falls below nf as faults start sharing
// necklaces.  Up to a handful of stranded processors, size ≈ dⁿ − dead.
func TestDeadNodeAttribution(t *testing.T) {
	rows := Simulate(2, 10, []int{1, 10, 50}, 300, 4)
	for _, row := range rows {
		if row.AvgDeadNodes > float64(10*row.F) {
			t.Errorf("f=%d: avg dead %f exceeds nf", row.F, row.AvgDeadNodes)
		}
		predicted := 1024 - row.AvgDeadNodes
		if diff := predicted - row.AvgSize; diff < 0 || diff > 25 {
			t.Errorf("f=%d: avg size %.2f vs predicted %.2f (stranding %.2f out of range)",
				row.F, row.AvgSize, predicted, diff)
		}
	}
	// At f = 50 necklace sharing is visible: dead < nf strictly.
	if last := rows[len(rows)-1]; last.AvgDeadNodes >= float64(10*last.F) {
		t.Errorf("f=50: expected multi-fault necklaces (dead %.2f < 500)", last.AvgDeadNodes)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a := Simulate(2, 8, []int{3}, 50, 99)
	b := Simulate(2, 8, []int{3}, 50, 99)
	if a[0] != b[0] {
		t.Errorf("same seed, different results: %+v vs %+v", a[0], b[0])
	}
	c := Simulate(2, 8, []int{3}, 50, 100)
	if a[0] == c[0] {
		t.Error("different seeds should give different trials")
	}
}

// TestSimulateRejectsImpossibleInput pins SimulateWorkers to a panic
// that names the bad input: a trial cannot draw more than dⁿ distinct
// faulty nodes.  Each call runs on its own goroutine so a hang fails
// the test instead of stalling it.
func TestSimulateRejectsImpossibleInput(t *testing.T) {
	for _, c := range []struct {
		name   string
		counts []int
		trials int
		want   string
	}{
		{"faults above dⁿ", []int{0, 9}, 1, "fault count 9 outside 0..8"},
		{"negative trials", []int{1}, -1, "negative trial count -1"},
	} {
		got := make(chan any, 1)
		go func() {
			defer func() { got <- recover() }()
			SimulateWorkers(2, 3, c.counts, c.trials, 1, 1)
		}()
		select {
		case r := <-got:
			if msg, _ := r.(string); !strings.Contains(msg, c.want) {
				t.Errorf("%s: panic %v, want one naming %q", c.name, r, c.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: SimulateWorkers still running after 5s", c.name)
		}
	}
	if rows := SimulateWorkers(2, 3, []int{8}, 2, 1, 1); rows[0].MaxSize != 0 {
		t.Errorf("every node faulty: component of size %d", rows[0].MaxSize)
	}
}

func TestWriteTable(t *testing.T) {
	rows := Simulate(2, 6, []int{0, 1}, 20, 5)
	var sb strings.Builder
	WriteTable(&sb, 2, 6, rows)
	out := sb.String()
	for _, want := range []string{"B(2,6)", "Avg.Size", "d^n-nf"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func BenchmarkSimulateRow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Simulate(2, 10, []int{5}, 10, uint64(i))
	}
}
