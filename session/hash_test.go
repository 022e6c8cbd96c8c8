package session

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"strconv"
	"testing"
)

// fnvRingHash is the hash/fnv formulation of ringHash, the reference
// for its byte-skipping fast path.
func fnvRingHash(ring []int) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range ring {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// TestRingHashMatchesFNV checks ringHash against hash/fnv on ids below
// 2⁸ (one nonzero byte), below 2¹⁶ (the fast path's limit), at and above
// 2¹⁶ (the per-byte fallback), and on mixed rings.
func TestRingHashMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	draw := func(lo, hi, k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = lo + rng.Intn(hi-lo)
		}
		return out
	}
	rings := map[string][]int{
		"empty":        nil,
		"[0,2^8)":      draw(0, 1<<8, 300),
		"[2^8,2^16)":   draw(1<<8, 1<<16, 300),
		">=2^16":       draw(1<<16, 1<<40, 300),
		"boundaries":   {0, 255, 256, 1<<16 - 1, 1 << 16, 1<<16 + 1, 1<<62 + 3},
		"mixed random": append(append(draw(0, 1<<8, 100), draw(1<<8, 1<<16, 100)...), draw(1<<16, 1<<32, 100)...),
	}
	rng.Shuffle(len(rings["mixed random"]), func(i, j int) {
		r := rings["mixed random"]
		r[i], r[j] = r[j], r[i]
	})
	for name, ring := range rings {
		if got, want := ringHash(ring), fnvRingHash(ring); got != want {
			t.Errorf("%s: ringHash %s, hash/fnv %s", name, got, want)
		}
	}
}
