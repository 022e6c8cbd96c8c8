package main

import (
	"math"
	"strings"
	"testing"
)

func TestExceedsNodes(t *testing.T) {
	for _, c := range []struct {
		f, d, n int
		want    bool
	}{
		{8, 2, 3, false},
		{9, 2, 3, true},
		{0, 2, 1, false},
		{1024, 4, 5, false},
		{1025, 4, 5, true},
		{math.MaxInt, 2, 40, true},
		{5, 2, 62, false}, // 2⁶² is never formed
	} {
		if got := exceedsNodes(c.f, c.d, c.n); got != c.want {
			t.Errorf("exceedsNodes(%d, %d, %d) = %v, want %v", c.f, c.d, c.n, got, c.want)
		}
	}
}

// TestRunRejectsUnrunnableConfigs: a command line ffcsim cannot run
// exits 2 with one usage line and prints no table title.
func TestRunRejectsUnrunnableConfigs(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "3"},                             // -n without -d
		{"-d", "2", "-n", "70"},                 // 2⁷⁰ nodes
		{"-d", "2", "-n", "32", "-faults", "0"}, // 2³², one past the kernels
	} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 ||
			!strings.HasPrefix(stderr.String(), "ffcsim: ") || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2, nothing, one usage line", args, code, stdout.String(), stderr.String())
		}
	}
}

// TestRunPrintsTable: a runnable command line prints its table and
// exits 0.
func TestRunPrintsTable(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-d", "2", "-n", "4", "-trials", "2", "-faults", "0,1"}, &stdout, &stderr); code != 0 ||
		!strings.HasPrefix(stdout.String(), "B(2,4) simulation (2 trials per row, seed 1991)\n") || stderr.Len() != 0 {
		t.Errorf("exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}
