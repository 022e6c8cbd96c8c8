package dense

import (
	"math/rand"
	"testing"
)

func TestSetEpochReset(t *testing.T) {
	var s Set
	s.Reset(10)
	if !s.Add(3) || s.Add(3) || !s.Has(3) || s.Has(4) {
		t.Error("basic Add/Has wrong")
	}
	s.Reset(10)
	if s.Has(3) {
		t.Error("membership survived Reset")
	}
	if !s.Add(3) {
		t.Error("re-Add after Reset not new")
	}
	// Growing reallocates; shrinking reuses.
	s.Reset(20)
	s.Add(19)
	s.Reset(5)
	if s.Has(19) || s.Has(3) {
		t.Error("membership survived resize Reset")
	}
}

func TestSetEpochWrap(t *testing.T) {
	var s Set
	s.Reset(4)
	s.Add(2)
	s.epoch = ^uint32(0) // force the next Reset to wrap
	s.stamp[1] = 0       // a stale stamp that would alias epoch 0
	s.Reset(4)
	if s.Has(1) || s.Has(2) {
		t.Error("stale members resurfaced after epoch wrap")
	}
	if !s.Add(1) {
		t.Error("Add after wrap not new")
	}
}

func TestInts(t *testing.T) {
	var m Ints
	m.Reset(8)
	if _, ok := m.Get(5); ok {
		t.Error("fresh map has entries")
	}
	m.Set(5, 0) // zero value must still read as present
	if v, ok := m.Get(5); !ok || v != 0 {
		t.Error("zero value not distinguishable from absent")
	}
	m.Set(5, -7)
	if v, ok := m.Get(5); !ok || v != -7 || m.At(5) != -7 {
		t.Error("overwrite lost")
	}
	if !m.Has(5) || m.Has(6) {
		t.Error("Has wrong")
	}
	m.Reset(8)
	if m.Has(5) {
		t.Error("entry survived Reset")
	}
}

func BenchmarkSetResetAdd(b *testing.B) {
	var s Set
	for i := 0; i < b.N; i++ {
		s.Reset(1024)
		for j := 0; j < 64; j++ {
			s.Add(j * 16)
		}
	}
}

// TestSparseMatchesMap drives Sparse and a Go map through the same
// seeded inserts, overwrites, lookups and resets, across table growth
// and with keys spread over a large range.
func TestSparseMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var s Sparse
	for round := 0; round < 20; round++ {
		ref := map[int]int32{}
		s.Reset()
		for i := 0; i < 1+rng.Intn(300); i++ {
			k := rng.Intn(1 << (4 + rng.Intn(24)))
			v := int32(rng.Intn(1000) - 500)
			_, had := ref[k]
			if added := s.Set(k, v); added == had {
				t.Fatalf("round %d: Set(%d) added=%v, key present before: %v", round, k, added, had)
			}
			ref[k] = v
		}
		for k, v := range ref {
			if got, ok := s.Get(k); !ok || got != v {
				t.Fatalf("round %d: Get(%d) = %d, %v; want %d", round, k, got, ok, v)
			}
		}
		keys := s.AppendKeys(nil)
		if s.Len() != len(ref) || len(keys) != len(ref) {
			t.Fatalf("round %d: Len %d, %d keys, want %d", round, s.Len(), len(keys), len(ref))
		}
		for _, k := range keys {
			if _, ok := ref[k]; !ok {
				t.Fatalf("round %d: AppendKeys lists absent key %d", round, k)
			}
		}
		for i := 0; i < 100; i++ {
			k := rng.Intn(1 << 28)
			if _, want := ref[k]; s.Has(k) != want {
				t.Fatalf("round %d: Has(%d) = %v", round, k, !want)
			}
		}
		// Delete about half the keys, some twice, and a few absent ones.
		for _, k := range keys {
			if rng.Intn(2) == 0 {
				s.Delete(k)
				s.Delete(k)
				delete(ref, k)
			}
			s.Delete(1<<29 + rng.Intn(1<<20)) // never inserted
		}
		if s.Len() != len(ref) {
			t.Fatalf("round %d: Len %d after deletes, want %d", round, s.Len(), len(ref))
		}
		for _, k := range keys {
			v, want := ref[k]
			if got, ok := s.Get(k); ok != want || ok && got != v {
				t.Fatalf("round %d: after deletes Get(%d) = %d, %v; want %d, %v", round, k, got, ok, v, want)
			}
		}
	}
}
