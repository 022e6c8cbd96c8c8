package session

import (
	"slices"
	"time"

	"debruijnring/internal/repair"
)

// TierTrace is one rung of a fault/heal event's repair-ladder descent,
// as journal lines, watch payloads and trace records carry it.
type TierTrace = repair.TierStep

// TraceRecord is one per-session repair trace: the journal outcome of
// a fault/heal event plus its tier descent, served by
// GET /v1/sessions/{name}/trace for the newest traceRecords fault/heal
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

// Traces returns the trace records of the newest fault/heal events in
// the watch buffer, at most traceRecords of them, oldest first.  limit
// > 0 bounds the result to the limit newest records.  A restored
// session's buffer starts with the journal's newest events, so their
// records are served as the journal holds them.
func (s *Session) Traces(limit int) []TraceRecord {
	if limit <= 0 || limit > traceRecords {
		limit = traceRecords
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var recs []TraceRecord
	for i := len(s.events) - 1; i >= 0 && len(recs) < limit; i-- {
		ev := s.watchedLocked(i)
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
