package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"time"
	"unicode/utf8"
)

// AppendJSON appends the event's JSON encoding to dst and returns the
// extended slice: exactly the bytes json.Encoder with SetEscapeHTML(false)
// writes for the event, without the trailing newline.  Journal lines and
// replication bodies are built with it, so the fields of created, embed,
// fault and heal events cost no reflection and no allocation beyond
// dst's growth; the snapshot-only Patcher and Stats (one event in
// SnapshotEvery) go through encoding/json.  Time must be one
// encoding/json can encode (MarshalJSON reports one it cannot).
func (ev *Event) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, ev.Seq, 10)
	dst = append(dst, `,"time":"`...)
	dst = ev.Time.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","kind":`...)
	dst = appendString(dst, ev.Kind)
	dst = appendStringField(dst, `,"name":`, ev.Name)
	dst = appendStringField(dst, `,"spec":`, ev.Spec)
	dst = appendIntField(dst, `,"repair_ver":`, int64(ev.RepairVer))
	dst = appendInts(dst, `,"add_nodes":`, ev.AddNodes)
	dst = appendPairs(dst, `,"add_edges":`, ev.AddEdges)
	dst = appendInts(dst, `,"remove_nodes":`, ev.RemoveNodes)
	dst = appendPairs(dst, `,"remove_edges":`, ev.RemoveEdges)
	dst = appendStringField(dst, `,"repair":`, ev.Repair)
	dst = appendStringField(dst, `,"error":`, ev.Error)
	if len(ev.Tiers) > 0 {
		dst = append(dst, `,"tiers":[`...)
		for i := range ev.Tiers {
			t := &ev.Tiers[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"tier":`...)
			dst = appendString(dst, t.Tier)
			dst = append(dst, `,"outcome":`...)
			dst = appendString(dst, t.Outcome)
			dst = appendIntField(dst, `,"touched":`, int64(t.Touched))
			dst = append(dst, `,"elapsed_ns":`...)
			dst = strconv.AppendInt(dst, int64(t.Elapsed), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = appendIntField(dst, `,"ring_length":`, int64(ev.RingLength))
	dst = appendIntField(dst, `,"lower_bound":`, int64(ev.LowerBound))
	dst = appendIntField(dst, `,"fault_count":`, int64(ev.FaultCount))
	dst = appendStringField(dst, `,"ring_hash":`, ev.RingHash)
	dst = appendIntField(dst, `,"elapsed_ns":`, ev.ElapsedNs)
	dst = appendInts(dst, `,"removed":`, ev.Removed)
	dst = appendInts(dst, `,"added":`, ev.Added)
	if ev.DeltaTruncated {
		dst = append(dst, `,"delta_truncated":true`...)
	}
	dst = appendInts(dst, `,"ring":`, ev.Ring)
	dst = appendInts(dst, `,"fault_nodes":`, ev.FaultNodes)
	dst = appendPairs(dst, `,"fault_edges":`, ev.FaultEdges)
	if ev.Patcher != nil {
		dst = appendReflected(append(dst, `,"patcher":`...), ev.Patcher)
	}
	if ev.Stats != nil {
		dst = appendReflected(append(dst, `,"stats":`...), ev.Stats)
	}
	return append(dst, '}')
}

// MarshalJSON returns AppendJSON's bytes, so every encoding/json caller
// (fault responses, long-poll and SSE watch frames) writes the bytes it
// wrote before Event had the method: encoding/json HTML-escapes a
// Marshaler's output itself when its escaping is on.
func (ev Event) MarshalJSON() ([]byte, error) {
	if err := checkTime(ev.Time); err != nil {
		return nil, err
	}
	return ev.AppendJSON(make([]byte, 0, 512)), nil
}

// checkTime refuses the times encoding/json refuses to encode: RFC 3339
// has four year digits and zone offsets under a day.
func checkTime(t time.Time) error {
	if y := t.Year(); y < 0 || y > 9999 {
		return errors.New("session: event time year outside [0,9999]")
	}
	if _, off := t.Zone(); off <= -24*3600 || off >= 24*3600 {
		return errors.New("session: event time zone offset outside a day")
	}
	return nil
}

// appendReflected appends v's encoding/json encoding with HTML escaping
// off.  The snapshot-only fields it serves hold ints, bools and
// strings, whose encoding cannot fail.
func appendReflected(dst []byte, v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic("session: encoding a snapshot field: " + err.Error())
	}
	return append(dst, bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})...)
}

func appendStringField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(append(dst, key...), s)
}

func appendIntField(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendInts appends key and vs as a JSON array, nothing when vs is
// empty (omitempty).
func appendInts(dst []byte, key string, vs []int) []byte {
	if len(vs) == 0 {
		return dst
	}
	dst = append(dst, key...)
	for i, v := range vs {
		if i == 0 {
			dst = append(dst, '[')
		} else {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// appendPairs appends key and ps as a JSON array of two-element
// arrays, nothing when ps is empty (omitempty).
func appendPairs(dst []byte, key string, ps [][2]int) []byte {
	if len(ps) == 0 {
		return dst
	}
	dst = append(dst, key...)
	for i, p := range ps {
		if i == 0 {
			dst = append(dst, '[', '[')
		} else {
			dst = append(dst, ',', '[')
		}
		dst = strconv.AppendInt(dst, int64(p[0]), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(p[1]), 10)
		dst = append(dst, ']')
	}
	return append(dst, ']')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped as encoding/json
// escapes it with HTML escaping off: '"', '\\' and control bytes
// escaped, invalid UTF-8 replaced by U+FFFD, U+2028 and U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
