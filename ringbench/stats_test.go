package main

import "testing"

func seq(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = float64(n - i) // unsorted on purpose
	}
	return s
}

func TestTailFallsBackToSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n       int
		q       float64
		v, used float64
	}{
		{2000, 99, 1980, 99}, // 20 samples beyond p99
		{500, 99, 475, 95},   // p99 has 5 beyond, p95 has 25
		{200, 99, 190, 95},   // p99 has 2 beyond, p95 exactly 10
		{60, 99, 45, 75},     // p90 has 6 beyond, p75 has 15
		{15, 99, 8, 50},      // nothing has 10 beyond: the median
		{20000, 99.9, 19980, 99.9},
	} {
		v, used := seq(c.n).tail(c.q)
		if v != c.v || used != c.used {
			t.Errorf("n=%d q=%g: got p%g = %g, want p%g = %g", c.n, c.q, used, v, c.used, c.v)
		}
	}
	if v, _ := (samples{}).tail(99); v != 0 {
		t.Errorf("empty tail = %g", v)
	}
	if m := seq(9).median(); m != 5 {
		t.Errorf("median of 1..9 = %g", m)
	}
}
