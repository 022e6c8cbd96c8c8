// Package dense provides the allocation-free bookkeeping primitives behind
// the hot paths of the reproduction: epoch-stamped scratch sets and arrays
// whose reset is O(1) instead of O(size).
//
// The epoch trick: each slot carries the epoch at which it was last
// written; a slot is "present" only when its stamp equals the current
// epoch, so Reset just increments the epoch.  Repeated Monte-Carlo trials
// over the same graph therefore reuse one allocation and never pay a
// clearing pass.  On the (astronomically rare) epoch wrap-around the
// stamps are cleared once to keep stale entries from resurfacing.
package dense

// Set is an epoch-stamped membership set over [0, n) with O(1) Reset.
// The zero value is ready to use after a Reset.
type Set struct {
	epoch uint32
	stamp []uint32
}

// Reset empties the set and (re)sizes it to hold members in [0, n).
//
//ringlint:noalloc
func (s *Set) Reset(n int) {
	if len(s.stamp) < n {
		s.stamp = make([]uint32, n) //ringlint:allow alloc grow-once resize; steady-state resets are stamp bumps
		s.epoch = 1
		return
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could alias, clear once
		clear(s.stamp)
		s.epoch = 1
	}
}

// Add inserts i, reporting whether it was newly added.
//
//ringlint:noalloc
func (s *Set) Add(i int) bool {
	if s.stamp[i] == s.epoch {
		return false
	}
	s.stamp[i] = s.epoch
	return true
}

// Has reports membership of i.
//
//ringlint:noalloc
func (s *Set) Has(i int) bool { return s.stamp[i] == s.epoch }

// Ints is an epoch-stamped map [0, n) → int32 with O(1) Reset; absent
// slots are distinguished from zero values by their stamp.  The zero
// value is ready to use after a Reset.
type Ints struct {
	epoch uint32
	stamp []uint32
	val   []int32
}

// Reset empties the map and (re)sizes it to keys in [0, n).
//
//ringlint:noalloc
func (m *Ints) Reset(n int) {
	if len(m.stamp) < n {
		m.stamp = make([]uint32, n) //ringlint:allow alloc grow-once resize; steady-state resets are stamp bumps
		m.val = make([]int32, n)    //ringlint:allow alloc grow-once resize; steady-state resets are stamp bumps
		m.epoch = 1
		return
	}
	m.epoch++
	if m.epoch == 0 {
		clear(m.stamp)
		m.epoch = 1
	}
}

// Set stores v at key i.
//
//ringlint:noalloc
func (m *Ints) Set(i int, v int32) {
	m.stamp[i] = m.epoch
	m.val[i] = v
}

// Get returns the value at i and whether it is present.
//
//ringlint:noalloc
func (m *Ints) Get(i int) (int32, bool) {
	if m.stamp[i] != m.epoch {
		return 0, false
	}
	return m.val[i], true
}

// Has reports whether key i is present.
//
//ringlint:noalloc
func (m *Ints) Has(i int) bool { return m.stamp[i] == m.epoch }

// At returns the value at i; it must be present.
//
//ringlint:noalloc
func (m *Ints) At(i int) int32 { return m.val[i] }

// Sparse is a small open-addressing map from non-negative int keys to
// int32 values, for working sets of a few entries over a large key
// range: its memory and its Reset cost follow the most entries it has
// held, not the key range, where Ints would cost O(range) per owner.
// The zero value is an empty map.
type Sparse struct {
	slots []sparseSlot // power-of-two table, linear probing
	n     int
}

// sparseSlot stores key+1, so the zero slot is empty.
type sparseSlot struct {
	key1 int
	val  int32
}

// Reset empties the map, keeping its table.
//
//ringlint:noalloc
func (m *Sparse) Reset() {
	if m.n > 0 {
		clear(m.slots)
		m.n = 0
	}
}

// find returns the slot holding k, or the empty slot where k belongs.
//
//ringlint:noalloc
func (m *Sparse) find(k int) *sparseSlot {
	mask := len(m.slots) - 1
	for i := (k * 0x9E3779B1) & mask; ; i = (i + 1) & mask {
		if s := &m.slots[i]; s.key1 == 0 || s.key1 == k+1 {
			return s
		}
	}
}

// Get returns the value at k and whether it is present.
//
//ringlint:noalloc
func (m *Sparse) Get(k int) (int32, bool) {
	if m.n == 0 {
		return 0, false
	}
	s := m.find(k)
	return s.val, s.key1 != 0
}

// Has reports whether k is present.
//
//ringlint:noalloc
func (m *Sparse) Has(k int) bool {
	_, ok := m.Get(k)
	return ok
}

// Set stores v at k, reporting whether k was newly added.  The table
// doubles when it would pass half full.
//
//ringlint:noalloc
func (m *Sparse) Set(k int, v int32) bool {
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	s := m.find(k)
	added := s.key1 == 0
	if added {
		s.key1 = k + 1
		m.n++
	}
	s.val = v
	return added
}

// grow doubles the table (at least 16 slots) and reinserts every entry.
//
//ringlint:noalloc
func (m *Sparse) grow() {
	old := m.slots
	m.slots = make([]sparseSlot, max(16, 2*len(old))) //ringlint:allow alloc grow-once doubling; steady-state resets keep the table
	for _, s := range old {
		if s.key1 != 0 {
			*m.find(s.key1 - 1) = s
		}
	}
}
