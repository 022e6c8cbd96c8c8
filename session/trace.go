package session

import (
	"slices"
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

// TraceRecord is one per-session repair trace: the journal outcome of
// a live fault/heal event plus its tier descent, served by
// GET /v1/sessions/{name}/trace for the newest traceRecords live
// events of the session's watch buffer.
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

// traceRecords bounds the records Traces returns.
const traceRecords = 128

// Traces returns the trace records of the newest live fault/heal events
// in the watch buffer, at most traceRecords of them, oldest first.
// limit > 0 bounds the result to the limit newest records.  Events that
// journal replay re-ran are not live and yield no record.
func (s *Session) Traces(limit int) []TraceRecord {
	if limit <= 0 || limit > traceRecords {
		limit = traceRecords
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var recs []TraceRecord
	for i := len(s.events) - 1; i >= 0 && len(recs) < limit; i-- {
		ev := &s.events[i]
		if ev.Seq <= s.replayedSeq {
			break
		}
		if ev.Kind != "fault" && ev.Kind != "heal" {
			continue
		}
		recs = append(recs, TraceRecord{
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
	slices.Reverse(recs)
	return recs
}
