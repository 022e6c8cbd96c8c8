// Package word implements d-ary n-tuple arithmetic for De Bruijn networks.
//
// A node of the d-ary De Bruijn graph B(d,n) is an n-tuple x₁x₂…xₙ over the
// alphabet Z_d = {0, …, d−1}.  Following the paper (Rowley–Bose, §1.4 and
// §2.1), tuples are ordered by viewing them as base-d numbers with x₁ the
// most significant digit.  This package codes a tuple as the integer
//
//	x₁·d^(n−1) + x₂·d^(n−2) + … + xₙ
//
// in the range [0, dⁿ).  All operations are small, allocation-free integer
// manipulations so that graph algorithms built on top can run over millions
// of nodes without GC pressure.
package word

import (
	"fmt"
	"slices"
	"sync"
)

// Space describes the set of d-ary n-tuples.  It precomputes the powers of d
// used by digit and rotation arithmetic.  A Space is immutable after New and
// safe for concurrent use.
type Space struct {
	D    int   // alphabet size (radix), d ≥ 2
	N    int   // tuple length, n ≥ 1
	Size int   // dⁿ, the number of tuples
	pow  []int // pow[i] = dⁱ for 0 ≤ i ≤ n

	// AppendString renders chunkLen ≤ 8 digits per division: chunks[v]
	// is the chunkLen-digit string of v right-aligned in 8 bytes, for
	// every v < d^chunkLen ≤ 256 (no table when d > 256).  Built on
	// first use.
	chunkOnce sync.Once
	chunkLen  int
	chunks    [][8]byte
}

// MaxSize bounds dⁿ so that node and edge codes (which need d^(n+1)) stay
// comfortably inside an int64.
const MaxSize = 1 << 40

// New returns the space of d-ary n-tuples.  It panics if d < 2, n < 1, or
// dⁿ⁺¹ would overflow MaxSize; sizes that large are far outside the scale of
// any experiment in the paper.
func New(d, n int) *Space {
	if d < 2 {
		panic(fmt.Sprintf("word: alphabet size d = %d must be at least 2", d))
	}
	if n < 1 {
		panic(fmt.Sprintf("word: tuple length n = %d must be at least 1", n))
	}
	pow := make([]int, n+2)
	pow[0] = 1
	for i := 1; i <= n+1; i++ {
		if pow[i-1] > MaxSize/d {
			panic(fmt.Sprintf("word: d^n too large (d = %d, n = %d)", d, n))
		}
		pow[i] = pow[i-1] * d
	}
	return &Space{D: d, N: n, Size: pow[n], pow: pow}
}

// Pow returns dⁱ for 0 ≤ i ≤ n+1.
func (s *Space) Pow(i int) int { return s.pow[i] }

// Digit returns the i'th digit xᵢ of x, 1-indexed from the left as in the
// paper: Digit(x, 1) = x₁ is the most significant digit.
func (s *Space) Digit(x, i int) int {
	return x / s.pow[s.N-i] % s.D
}

// Digits expands x into its n digits x₁…xₙ, filling dst if it has capacity.
func (s *Space) Digits(x int, dst []int) []int {
	dst = dst[:0]
	for i := 1; i <= s.N; i++ {
		dst = append(dst, s.Digit(x, i))
	}
	return dst
}

// FromDigits assembles a tuple from its digits x₁…xₙ.
func (s *Space) FromDigits(digits []int) int {
	if len(digits) != s.N {
		panic(fmt.Sprintf("word: FromDigits got %d digits, want %d", len(digits), s.N))
	}
	x := 0
	for _, v := range digits {
		if v < 0 || v >= s.D {
			panic(fmt.Sprintf("word: digit %d out of range [0,%d)", v, s.D))
		}
		x = x*s.D + v
	}
	return x
}

// Parse converts a string of decimal digit characters ('0'–'9', then
// 'a'–'z' for digits 10–35) into a tuple.  It is the inverse of String.
func (s *Space) Parse(t string) (int, error) {
	if len(t) != s.N {
		return 0, fmt.Errorf("word: %q has length %d, want %d", t, len(t), s.N)
	}
	x := 0
	for _, c := range t {
		var v int
		switch {
		case c >= '0' && c <= '9':
			v = int(c - '0')
		case c >= 'a' && c <= 'z':
			v = int(c-'a') + 10
		default:
			return 0, fmt.Errorf("word: invalid digit %q in %q", c, t)
		}
		if v >= s.D {
			return 0, fmt.Errorf("word: digit %d out of range for alphabet size %d", v, s.D)
		}
		x = x*s.D + v
	}
	return x, nil
}

// String renders x as its digit string x₁…xₙ (e.g. "020" in B(3,3)).
func (s *Space) String(x int) string { return string(s.AppendString(nil, x)) }

// AppendString appends the digit string of x to dst and returns the
// extended slice.  Digits are peeled from the right, a table chunk at a
// time, then one by one; it allocates only when dst lacks room for n
// bytes.
func (s *Space) AppendString(dst []byte, x int) []byte {
	s.chunkOnce.Do(s.buildChunks)
	start := len(dst)
	dst = slices.Grow(dst, s.N)[:start+s.N]
	u, i := uint(x), len(dst)
	if k := s.chunkLen; k > 0 {
		base := uint(len(s.chunks))
		// Whole 8-byte slots while they fit: the bytes a slot writes
		// left of its chunk are rewritten by the digits that follow.
		for ; i-start >= 8; i -= k {
			*(*[8]byte)(dst[i-8 : i]) = s.chunks[u%base]
			u /= base
		}
		for ; i-start >= k; i -= k {
			copy(dst[i-k:i], s.chunks[u%base][8-k:])
			u /= base
		}
	}
	for d := uint(s.D); i > start; u /= d {
		i--
		dst[i] = DigitChar(int(u % d))
	}
	return dst
}

// buildChunks fills the AppendString table with the longest chunk of
// at most n digits whose d^chunkLen strings number at most 256.
func (s *Space) buildChunks() {
	for s.chunkLen < s.N && s.pow[s.chunkLen+1] <= 256 {
		s.chunkLen++
	}
	k := s.chunkLen
	if k == 0 {
		return
	}
	s.chunks = make([][8]byte, s.pow[k])
	for v := range s.chunks {
		for i, u := 7, v; i >= 8-k; i, u = i-1, u/s.D {
			s.chunks[v][i] = DigitChar(u % s.D)
		}
	}
}

// DigitChar renders one digit: '0'–'9', then 'a'–'z' for 10–35.
func DigitChar(v int) byte {
	if v < 10 {
		return byte('0' + v)
	}
	return byte('a' + v - 10)
}

// RotL returns the left rotation π(x) = x₂…xₙx₁.
func (s *Space) RotL(x int) int {
	return x%s.pow[s.N-1]*s.D + x/s.pow[s.N-1]
}

// RotLBy returns πⁱ(x), the left rotation of x by i positions.  Negative i
// rotates right.
func (s *Space) RotLBy(x, i int) int {
	i %= s.N
	if i < 0 {
		i += s.N
	}
	// x₁…xₙ → x_{i+1}…xₙ x₁…x_i
	return x%s.pow[s.N-i]*s.pow[i] + x/s.pow[s.N-i]
}

// Weight returns wt(x) = x₁ + … + xₙ, the digit sum.
func (s *Space) Weight(x int) int {
	w := 0
	for i := 1; i <= s.N; i++ {
		w += s.Digit(x, i)
	}
	return w
}

// CountDigit returns wt_α(x), the number of occurrences of digit α in x.
func (s *Space) CountDigit(x, alpha int) int {
	c := 0
	for i := 1; i <= s.N; i++ {
		if s.Digit(x, i) == alpha {
			c++
		}
	}
	return c
}

// Repeat returns the constant tuple αⁿ = α…α.
func (s *Space) Repeat(alpha int) int {
	x := 0
	for i := 0; i < s.N; i++ {
		x = x*s.D + alpha
	}
	return x
}

// Alternating returns the tuple ᾱβ of §3.2.3: αβ…αβ when n is even and
// αβ…αβα when n is odd.
func (s *Space) Alternating(alpha, beta int) int {
	x := 0
	for i := 0; i < s.N; i++ {
		if i%2 == 0 {
			x = x*s.D + alpha
		} else {
			x = x*s.D + beta
		}
	}
	return x
}

// Successor returns the De Bruijn successor x₂…xₙα obtained by shifting in
// the digit α.
func (s *Space) Successor(x, alpha int) int {
	return x%s.pow[s.N-1]*s.D + alpha
}

// Predecessor returns the De Bruijn predecessor αx₁…xₙ₋₁.
func (s *Space) Predecessor(x, alpha int) int {
	return alpha*s.pow[s.N-1] + x/s.D
}

// Prefix returns the leading n−1 digits x₁…xₙ₋₁ as an (n−1)-digit code.
func (s *Space) Prefix(x int) int { return x / s.D }

// Suffix returns the trailing n−1 digits x₂…xₙ as an (n−1)-digit code.
func (s *Space) Suffix(x int) int { return x % s.pow[s.N-1] }

// IsEdge reports whether (x, y) is an edge of B(d,n), i.e. y = x₂…xₙα.
func (s *Space) IsEdge(x, y int) bool {
	return y/s.D == x%s.pow[s.N-1]
}

// Edge codes the edge from x to its successor y as the (n+1)-tuple
// x₁…xₙ·yₙ in [0, dⁿ⁺¹).  It panics if (x,y) is not an edge.
func (s *Space) Edge(x, y int) int {
	if !s.IsEdge(x, y) {
		panic(fmt.Sprintf("word: (%s,%s) is not a De Bruijn edge", s.String(x), s.String(y)))
	}
	return x*s.D + y%s.D
}

// EdgeEndpoints decodes an (n+1)-tuple edge code into its head and tail
// nodes: e = x₁…xₙ₊₁ represents the edge x₁…xₙ → x₂…xₙ₊₁.
func (s *Space) EdgeEndpoints(e int) (from, to int) {
	return e / s.D, e % s.pow[s.N]
}

// Period returns the least t > 0 with πᵗ(x) = x.  Necklace lengths are
// exactly the periods, and every period divides n (§4.1).
func (s *Space) Period(x int) int {
	y := s.RotL(x)
	t := 1
	for y != x {
		y = s.RotL(y)
		t++
	}
	return t
}

// NecklaceRep returns the minimal rotation of x, the canonical
// representative [y] of the necklace N(x) (§2.1: the minimal node viewed as
// a base-d number).
func (s *Space) NecklaceRep(x int) int {
	min := x
	y := s.RotL(x)
	for y != x {
		if y < min {
			min = y
		}
		y = s.RotL(y)
	}
	return min
}

// NecklaceNodes appends the nodes of N(x) in rotation order starting from
// the canonical representative, and returns the slice.  The necklace is a
// directed cycle in B(d,n): each node is followed by its left rotation.
func (s *Space) NecklaceNodes(x int, dst []int) []int {
	dst = dst[:0]
	rep := s.NecklaceRep(x)
	y := rep
	for {
		dst = append(dst, y)
		y = s.RotL(y)
		if y == rep {
			return dst
		}
	}
}
