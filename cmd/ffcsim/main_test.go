package main

import (
	"math"
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
