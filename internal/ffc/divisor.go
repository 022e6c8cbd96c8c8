package ffc

import "math/bits"

// divisor divides node codes by a fixed p ≥ 1 with one multiply and one
// shift instead of a hardware divide (Granlund & Montgomery, "Division
// by Invariant Integers using Multiplication", PLDI 1994, Thm 4.2; see
// also Lemire, Kaser & Kurz, "Faster Remainder by Direct Computation",
// SPE 2019).  With ℓ = ⌈log₂ p⌉, s = 31 + ℓ and m = ⌊2ˢ/p⌋ + 1, the
// product m·p lies in (2ˢ, 2ˢ + 2ˢ⁻³¹], so ⌊x·m / 2ˢ⌋ = ⌊x/p⌋ for every
// 0 ≤ x < 2³¹ — every node code of a graph the dense kernels index.
// Since p > 2^(ℓ−1), m ≤ 2³², so x·m stays below 2⁶³.  p = 1 (n = 1)
// needs no special case: ℓ = 0 and m = 2³¹ + 1.
type divisor struct {
	p     int
	m     uint64
	shift uint
}

// newDivisor returns the divisor by p, for 1 ≤ p < 2³¹.
func newDivisor(p int) divisor {
	s := 31 + uint(bits.Len(uint(p-1)))
	return divisor{p: p, m: (uint64(1)<<s)/uint64(p) + 1, shift: s}
}

// quo returns ⌊x/p⌋ for 0 ≤ x < 2³¹.
func (v divisor) quo(x int) int { return int(uint64(x) * v.m >> v.shift) }

// split returns ⌊x/p⌋ and x mod p for 0 ≤ x < 2³¹.
func (v divisor) split(x int) (q, r int) {
	q = v.quo(x)
	return q, x - q*v.p
}
