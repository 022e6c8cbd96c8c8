package word

import (
	"testing"
	"testing/quick"
)

func TestDigitRoundTrip(t *testing.T) {
	for _, tc := range []struct{ d, n int }{{2, 3}, {3, 3}, {4, 5}, {5, 2}, {13, 2}} {
		s := New(tc.d, tc.n)
		buf := make([]int, 0, tc.n)
		for x := 0; x < s.Size; x++ {
			digits := s.Digits(x, buf)
			if got := s.FromDigits(digits); got != x {
				t.Fatalf("d=%d n=%d: FromDigits(Digits(%d)) = %d", tc.d, tc.n, x, got)
			}
		}
	}
}

func TestStringParse(t *testing.T) {
	s := New(3, 3)
	for x := 0; x < s.Size; x++ {
		str := s.String(x)
		got, err := s.Parse(str)
		if err != nil {
			t.Fatalf("Parse(%q): %v", str, err)
		}
		if got != x {
			t.Fatalf("Parse(String(%d)) = %d", x, got)
		}
	}
	if got := s.String(15); got != "120" {
		t.Errorf("String(15) = %q, want \"120\"", got)
	}
	if _, err := s.Parse("9"); err == nil {
		t.Error("Parse of wrong-length string should fail")
	}
	if _, err := s.Parse("009"); err == nil {
		t.Error("Parse of out-of-alphabet digit should fail")
	}
}

func TestStringLargeAlphabet(t *testing.T) {
	s := New(13, 2)
	x := s.FromDigits([]int{12, 10})
	if got := s.String(x); got != "ca" {
		t.Errorf("String = %q, want \"ca\"", got)
	}
	back, err := s.Parse("ca")
	if err != nil || back != x {
		t.Errorf("Parse(\"ca\") = %d, %v; want %d", back, err, x)
	}
}

// TestASCIIAlphabet pins the bound to DigitChar: every digit of an
// ASCIIAlphabet-letter alphabet is ASCII, the next one is not.
func TestASCIIAlphabet(t *testing.T) {
	for v := range ASCIIAlphabet {
		if DigitChar(v) > 0x7f {
			t.Fatalf("DigitChar(%d) = %#x, not ASCII", v, DigitChar(v))
		}
	}
	if c := DigitChar(ASCIIAlphabet); c <= 0x7f {
		t.Fatalf("DigitChar(%d) = %#x is ASCII: the bound is too low", ASCIIAlphabet, c)
	}
}

// TestAppendStringMatchesDigits checks the table-driven AppendString
// against the digits read off one by one, after a prefix it must keep,
// for chunk sizes from 8 digits (d = 2) down to no table (d > 256) and
// words shorter, as long as, and longer than one 8-byte slot.
func TestAppendStringMatchesDigits(t *testing.T) {
	for _, tc := range []struct{ d, n int }{
		{2, 1}, {2, 7}, {2, 8}, {2, 11}, {2, 16}, {2, 20}, {3, 6}, {3, 13},
		{4, 9}, {7, 5}, {16, 5}, {17, 3}, {36, 3}, {256, 2}, {300, 2},
	} {
		s := New(tc.d, tc.n)
		buf := []byte("pre")
		for i := 0; i < 4096; i++ {
			x := i * 2654435761 % s.Size
			want := []byte("pre")
			for j := 1; j <= s.N; j++ {
				want = append(want, DigitChar(s.Digit(x, j)))
			}
			buf = s.AppendString(buf[:3], x)
			if string(buf) != string(want) {
				t.Fatalf("d=%d n=%d x=%d: AppendString %q, want %q", tc.d, tc.n, x, buf, want)
			}
		}
	}
}

func TestRotations(t *testing.T) {
	s := New(3, 4)
	x, _ := s.Parse("1120")
	want := [...]string{"1120", "1201", "2011", "0112", "1120"}
	y := x
	for i, w := range want {
		if got := s.String(y); got != w {
			t.Fatalf("rotation %d = %q, want %q", i, got, w)
		}
		y = s.RotL(y)
	}
	// π²(0001) = 0100 (§4.1 example).
	s2 := New(2, 4)
	v, _ := s2.Parse("0001")
	if got := s2.String(s2.RotLBy(v, 2)); got != "0100" {
		t.Errorf("π²(0001) = %q, want 0100", got)
	}
}

func TestRotLByMatchesRepeatedRotL(t *testing.T) {
	s := New(3, 5)
	for x := 0; x < s.Size; x += 7 {
		y := x
		for i := 0; i <= 2*s.N; i++ {
			if got := s.RotLBy(x, i); got != y {
				t.Fatalf("RotLBy(%d,%d) = %d, want %d", x, i, got, y)
			}
			if got := s.RotLBy(x, i-s.N); got != y {
				t.Fatalf("RotLBy(%d,%d) = %d, want %d", x, i-s.N, got, y)
			}
			y = s.RotL(y)
		}
	}
}

func TestWeights(t *testing.T) {
	s := New(3, 4)
	x, _ := s.Parse("1120")
	if got := s.Weight(x); got != 4 {
		t.Errorf("wt(1120) = %d, want 4", got)
	}
	for alpha, want := range map[int]int{0: 1, 1: 2, 2: 1} {
		if got := s.CountDigit(x, alpha); got != want {
			t.Errorf("wt_%d(1120) = %d, want %d", alpha, got, want)
		}
	}
}

func TestWeightInvariantUnderRotation(t *testing.T) {
	s := New(4, 5)
	f := func(raw uint32) bool {
		x := int(raw) % s.Size
		y := s.RotL(x)
		if s.Weight(x) != s.Weight(y) {
			return false
		}
		for a := 0; a < s.D; a++ {
			if s.CountDigit(x, a) != s.CountDigit(y, a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSuccessorPredecessor(t *testing.T) {
	s := New(3, 3)
	x, _ := s.Parse("020")
	succ, _ := s.Parse("201")
	if got := s.Successor(x, 1); got != succ {
		t.Errorf("Successor(020,1) = %s, want 201", s.String(got))
	}
	pred, _ := s.Parse("102")
	if got := s.Predecessor(x, 1); got != pred {
		t.Errorf("Predecessor(020,1) = %s, want 102", s.String(got))
	}
	// Successor and Predecessor are mutually inverse in the shift sense.
	for v := 0; v < s.Size; v++ {
		for a := 0; a < s.D; a++ {
			w := s.Successor(v, a)
			if s.Predecessor(w, s.Digit(v, 1)) != v {
				t.Fatalf("pred(succ) mismatch at %s", s.String(v))
			}
			if !s.IsEdge(v, w) {
				t.Fatalf("IsEdge(%s,%s) = false", s.String(v), s.String(w))
			}
		}
	}
}

func TestEdgeCodes(t *testing.T) {
	s := New(3, 3)
	x, _ := s.Parse("012")
	y, _ := s.Parse("122")
	e := s.Edge(x, y)
	from, to := s.EdgeEndpoints(e)
	if from != x || to != y {
		t.Errorf("EdgeEndpoints(Edge) = (%s,%s), want (012,122)", s.String(from), s.String(to))
	}
	// Every edge code in [0, d^{n+1}) decodes to a valid edge.
	for e := 0; e < s.Pow(s.N+1); e++ {
		f, g := s.EdgeEndpoints(e)
		if !s.IsEdge(f, g) {
			t.Fatalf("edge code %d decodes to non-edge (%s,%s)", e, s.String(f), s.String(g))
		}
	}
}

func TestRepeatAndAlternating(t *testing.T) {
	s := New(3, 4)
	if got := s.String(s.Repeat(2)); got != "2222" {
		t.Errorf("Repeat(2) = %q", got)
	}
	if got := s.String(s.Alternating(0, 1)); got != "0101" {
		t.Errorf("Alternating(0,1) = %q", got)
	}
	s5 := New(3, 5)
	if got := s5.String(s5.Alternating(1, 2)); got != "12121" {
		t.Errorf("odd-n Alternating(1,2) = %q", got)
	}
}

func TestPeriodAndNecklace(t *testing.T) {
	s := New(3, 4)
	x, _ := s.Parse("1120")
	if got := s.Period(x); got != 4 {
		t.Errorf("period(1120) = %d, want 4", got)
	}
	rep, _ := s.Parse("0112")
	if got := s.NecklaceRep(x); got != rep {
		t.Errorf("NecklaceRep(1120) = %s, want 0112", s.String(got))
	}
	nodes := s.NecklaceNodes(x, nil)
	want := []string{"0112", "1120", "1201", "2011"}
	if len(nodes) != len(want) {
		t.Fatalf("necklace has %d nodes, want %d", len(nodes), len(want))
	}
	for i, w := range want {
		if s.String(nodes[i]) != w {
			t.Errorf("necklace node %d = %s, want %s", i, s.String(nodes[i]), w)
		}
	}
	// Constant tuples have period 1.
	if got := s.Period(s.Repeat(2)); got != 1 {
		t.Errorf("period(2222) = %d, want 1", got)
	}
	// 1212 has period 2.
	if got := s.Period(s.Alternating(1, 2)); got != 2 {
		t.Errorf("period(1212) = %d, want 2", got)
	}
}

func TestPeriodDividesN(t *testing.T) {
	s := New(2, 12)
	for x := 0; x < s.Size; x += 11 {
		if s.N%s.Period(x) != 0 {
			t.Fatalf("period(%s) = %d does not divide %d", s.String(x), s.Period(x), s.N)
		}
	}
}

func TestNecklacePartition(t *testing.T) {
	// Necklaces partition the node set (§2.1): every node appears in the
	// necklace of its representative, and representatives are fixed points.
	s := New(3, 3)
	seen := make([]bool, s.Size)
	count := 0
	var buf []int
	for x := 0; x < s.Size; x++ {
		if s.NecklaceRep(x) != x {
			continue
		}
		count++
		buf = s.NecklaceNodes(x, buf)
		for _, v := range buf {
			if seen[v] {
				t.Fatalf("node %s in two necklaces", s.String(v))
			}
			seen[v] = true
		}
	}
	for x, ok := range seen {
		if !ok {
			t.Fatalf("node %s not covered", s.String(x))
		}
	}
	// B(3,3) has 11 necklaces: 3 of length 1 and 8 of length 3.
	if count != 11 {
		t.Errorf("B(3,3) has %d necklaces, want 11", count)
	}
}

func TestPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(1, 3) },
		func() { New(2, 0) },
		func() { New(2, 63) },
		func() { New(3, 3).FromDigits([]int{1, 2}) },
		func() { New(3, 3).FromDigits([]int{1, 2, 5}) },
		func() { s := New(3, 3); s.Edge(0, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func BenchmarkRotL(b *testing.B) {
	s := New(4, 10)
	x := s.Size / 3
	for i := 0; i < b.N; i++ {
		x = s.RotL(x)
	}
	_ = x
}

func BenchmarkNecklaceRep(b *testing.B) {
	s := New(4, 10)
	for i := 0; i < b.N; i++ {
		_ = s.NecklaceRep(i % s.Size)
	}
}
