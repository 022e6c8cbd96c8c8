package session

import (
	"time"

	"debruijnring/internal/repair"
)

// TierTrace is one repair tier's attempt inside a fault/heal event:
// which rung of the FFC → splice → re-embed ladder ran, how it
// answered, how much structure it touched (stars re-closed for the
// structural tier, arcs/insertions for the splice tier) and how long
// it took.  Events carry the full descent, so a re-embed event still
// shows which tiers declined first (and how much time they burned).
type TierTrace struct {
	Tier      string `json:"tier"`    // "ffc", "splice" or "reembed"
	Outcome   string `json:"outcome"` // repair.Outcome string; "ok"/"error" for reembed
	Touched   int    `json:"touched,omitempty"`
	ElapsedNs int64  `json:"elapsed_ns"`
}

// tierTraces converts the patcher's last tier ladder.  steps is
// Patcher.LastTrace, which the next patcher call invalidates.
func tierTraces(steps []repair.TierStep) []TierTrace {
	if len(steps) == 0 {
		return nil
	}
	out := make([]TierTrace, len(steps))
	for i, st := range steps {
		out[i] = TierTrace{
			Tier:      st.Tier,
			Outcome:   st.Outcome.String(),
			Touched:   st.Touched,
			ElapsedNs: st.Elapsed.Nanoseconds(),
		}
	}
	return out
}

// TraceRecord is one retained per-session repair trace: the journal
// outcome of a fault/heal event plus its tier descent.  Sessions keep
// a bounded ring of the most recent records (Options.TraceBuffer),
// served by GET /v1/sessions/{name}/trace.
type TraceRecord struct {
	Seq        uint64      `json:"seq"`
	Time       time.Time   `json:"time"`
	Kind       string      `json:"kind"`   // "fault" or "heal"
	Repair     string      `json:"repair"` // journal outcome: local/splice/reembed/noop/rejected
	Tiers      []TierTrace `json:"tiers,omitempty"`
	RingLength int         `json:"ring_length"`
	FaultCount int         `json:"fault_count"`
	ElapsedNs  int64       `json:"elapsed_ns"`
	Error      string      `json:"error,omitempty"`
}

// recordTraceLocked retains one event's trace in the session's bounded
// buffer.  Only live events are retained (journal replay rebuilds
// rings, not observability history).
func (s *Session) recordTraceLocked(ev *Event) {
	limit := s.mgr.opts.TraceBuffer
	if limit <= 0 {
		return
	}
	if len(s.traces) >= limit {
		s.traces = append(s.traces[:0], s.traces[len(s.traces)-limit+1:]...)
	}
	s.traces = append(s.traces, TraceRecord{
		Seq:        ev.Seq,
		Time:       ev.Time,
		Kind:       ev.Kind,
		Repair:     ev.Repair,
		Tiers:      ev.Tiers,
		RingLength: ev.RingLength,
		FaultCount: ev.FaultCount,
		ElapsedNs:  ev.ElapsedNs,
		Error:      ev.Error,
	})
}

// Traces returns the most recent retained trace records, oldest first.
// limit <= 0 returns every retained record.
func (s *Session) Traces(limit int) []TraceRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.traces
	if limit > 0 && len(recs) > limit {
		recs = recs[len(recs)-limit:]
	}
	return append([]TraceRecord(nil), recs...)
}
