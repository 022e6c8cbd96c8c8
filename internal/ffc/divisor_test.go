package ffc

import (
	"math/rand/v2"
	"testing"
)

// TestDivisorExact checks the multiply-shift divisor against hardware
// division for every dⁿ⁻¹ of a graph the dense kernels index (dⁿ ≤ 2³¹,
// so every node code is below 2³¹), including dⁿ⁻¹ = 1 for n = 1.  For
// each divisor from d ≤ 256 — n = 1 through 31 — it runs every
// x < 2¹⁶; for the rest (n = 2 and 3 with larger d) it runs the
// multiples of p and their neighbours across the whole range.  Every
// divisor also gets 2³¹−1 and seeded random 31-bit values.
func TestDivisorExact(t *testing.T) {
	const limit = 1 << 31
	rng := rand.New(rand.NewPCG(22, 31))
	check := func(v divisor, x int) {
		if q, r := v.split(x); q != x/v.p || r != x%v.p {
			t.Fatalf("p=%d x=%d: got (%d, %d), want (%d, %d)", v.p, x, q, r, x/v.p, x%v.p)
		}
	}
	tested := map[int]bool{}
	for d := 2; d*d <= limit; d++ {
		for p := 1; p*d <= limit; p *= d { // p = dⁿ⁻¹ with dⁿ ≤ 2³¹
			if tested[p] {
				continue
			}
			tested[p] = true
			v := newDivisor(p)
			if d <= 256 {
				for x := 0; x < 1<<16; x++ {
					check(v, x)
				}
			} else {
				for k := 1; k*p < limit; k += 1 + k/4 {
					for _, x := range []int{k*p - 1, k * p, k*p + 1} {
						if x < limit {
							check(v, x)
						}
					}
				}
			}
			check(v, limit-1)
			for i := 0; i < 64; i++ {
				check(v, rng.IntN(limit))
			}
		}
	}
	if !tested[1] || !tested[1<<30] {
		t.Fatal("divisor grid missed dⁿ⁻¹ = 1 or 2³⁰")
	}
}
