package session

import (
	"math/rand"
	"reflect"
	"testing"
)

// eventsSinceScan is the linear scan eventsSinceLocked replaced, kept as
// its oracle.
func eventsSinceScan(s *Session, after uint64) (evs []Event, truncated bool) {
	if len(s.events) > 0 && s.watchedLocked(0).Seq > after+1 {
		truncated = true
	}
	for i := range s.events {
		if ev := s.watchedLocked(i); ev.Seq > after {
			evs = append(evs, *ev)
		}
	}
	return evs, truncated
}

// TestEventsSinceMatchesScan holds the binary search of
// eventsSinceLocked to the linear scan on every watch buffer shape: an
// empty buffer, a partly full one, one wrapped past eventBuffer, and
// buffers seeded as a restore seeds them, whose seqs have gaps, before
// and after they wrap.  It asks after = 0 and every seq around each
// buffered event (so a caught-up watcher and one past the newest event
// too), and the result must be exactly as long as its capacity.
func TestEventsSinceMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	publish := func(s *Session, n int, gaps bool) {
		for range n {
			seq := uint64(1)
			if k := len(s.events); k > 0 {
				seq = s.watchedLocked(k-1).Seq + 1
			}
			if gaps {
				seq += uint64(rng.Intn(4)) // replay keeps the journal's numbering across gaps
			}
			s.publishLocked(Event{Seq: seq, Kind: "fault", RingLength: int(seq)})
		}
	}
	restored := func(n int) *Session {
		s := &Session{notify: make(chan struct{})}
		seq := uint64(5)
		for range n {
			s.events = append(s.events, Event{Seq: seq, Kind: "heal"})
			seq += 1 + uint64(rng.Intn(3))
		}
		return s
	}
	cases := map[string]*Session{}
	for _, c := range []struct {
		name   string
		seed   int // events a restore seeded
		n      int // events published after
		gapped bool
	}{
		{"empty", 0, 0, false},
		{"partly full", 0, 10, false},
		{"full", 0, eventBuffer, false},
		{"wrapped", 0, 2*eventBuffer + 37, false},
		{"restored with gaps", 40, 0, false},
		{"restored full, then wrapped", eventBuffer, 100, true},
		{"restored, then wrapped with gaps", 200, 3 * eventBuffer, true},
	} {
		s := restored(c.seed)
		if c.seed == 0 {
			s = &Session{notify: make(chan struct{})}
		}
		publish(s, c.n, c.gapped)
		cases[c.name] = s
	}
	for name, s := range cases {
		afters := []uint64{0, 1}
		for i := range s.events {
			seq := s.watchedLocked(i).Seq
			afters = append(afters, seq-1, seq, seq+1, seq+2)
		}
		for _, after := range afters {
			got, gotTrunc := s.eventsSinceLocked(after)
			want, wantTrunc := eventsSinceScan(s, after)
			if !reflect.DeepEqual(got, want) || gotTrunc != wantTrunc {
				t.Fatalf("%s, after %d: %d events (truncated %v), the scan %d (truncated %v)",
					name, after, len(got), gotTrunc, len(want), wantTrunc)
			}
			if len(got) != cap(got) {
				t.Fatalf("%s, after %d: %d events in a slice of capacity %d", name, after, len(got), cap(got))
			}
		}
	}
}
