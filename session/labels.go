package session

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"debruijnring/topology"
)

// Labels is a ring rendered as processor labels: the JSON array of
// strings every ring-carrying endpoint sends.  It is a []string (and
// assignable to one); decoding a body through it instead of a []string
// yields the same value but costs one string allocation for the whole
// array rather than one per label.
type Labels []string

// UnmarshalJSON decodes a JSON array of strings.  An array in the exact
// shape AppendLabels writes — no whitespace, every string of printable
// ASCII free of escapes — is converted to one string once and every
// label sliced out of it.  Any other input (null, whitespace, escapes,
// non-ASCII, malformed JSON) is decoded by encoding/json into a
// []string, so the result and the error are always those of decoding
// into a []string.
func (l *Labels) UnmarshalJSON(data []byte) error {
	if out, ok := plainLabels(data); ok {
		*l = out
		return nil
	}
	var s []string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	*l = s
	return nil
}

// plainLabels decodes data if it is exactly `[]` or `["…","…",…]`
// with no whitespace and only bytes 0x20–0x7e other than '"' and '\'
// inside the strings.
func plainLabels(data []byte) (Labels, bool) {
	last := len(data) - 1
	if last < 1 || data[0] != '[' || data[last] != ']' {
		return nil, false
	}
	s := string(data)
	out := make(Labels, 0, strings.Count(s, `"`)/2)
	for i := 1; i < last; i++ { // i is at an opening quote
		if s[i] != '"' {
			return nil, false
		}
		end := i + 1 + strings.IndexByte(s[i+1:], '"')
		if end <= i || end == last {
			return nil, false
		}
		for _, c := range []byte(s[i+1 : end]) {
			if c < 0x20 || c > 0x7e || c == '\\' {
				return nil, false
			}
		}
		out = append(out, s[i+1:end])
		if i = end + 1; i < last && (s[i] != ',' || i+1 == last) {
			return nil, false
		}
	}
	return out, true
}

// AppendLabels appends ring as a JSON array of net's labels to dst and
// returns the extended slice: byte for byte what encoding/json writes
// for the []string of net.Label(v), built label by label through
// net.AppendLabel without a string per label.  A label holding a byte
// encoding/json would rewrite (built-in topologies have them only past
// 41 letters, e.g. debruijn(50,2)) is quoted by encoding/json itself.
func AppendLabels[T int | int32](dst []byte, net topology.Network, ring []T) []byte {
	_, plain := topology.LabelShape(net)
	out := labelSink{buf: dst, limit: math.MaxInt}
	renderLabels(&out, net, ring, plain)
	return out.buf
}

// labelSink is where renderLabels writes: into buf, and once buf reaches
// limit, flush passes it to w and starts it over.  n counts the bytes
// passed on.  With w nil they are only counted, as they are after a
// write to w fails (the client is gone: the rest is dropped).
type labelSink struct {
	w     io.Writer
	buf   []byte
	limit int
	n     int
}

// flush passes buf on and empties it.
func (s *labelSink) flush() {
	s.pass(s.buf)
	s.buf = s.buf[:0]
}

// write adds p to the output, through buf when it fits.
func (s *labelSink) write(p []byte) {
	if len(s.buf)+len(p) <= s.limit {
		s.buf = append(s.buf, p...)
		return
	}
	s.flush()
	s.pass(p)
}

// pass writes p to w and counts it.
func (s *labelSink) pass(p []byte) {
	if len(p) == 0 {
		return
	}
	if s.w != nil {
		if _, err := s.w.Write(p); err != nil {
			s.w = nil
		}
	}
	s.n += len(p)
}

// renderLabels writes ring as a JSON array of net's labels to out, the
// one loop behind AppendLabels and WriteRing.  plain says every label is
// known to need no escaping (topology.LabelShape); otherwise each is
// checked, and one holding a byte encoding/json would rewrite is quoted
// by encoding/json.
func renderLabels[T int | int32](out *labelSink, net topology.Network, ring []T, plain bool) {
	buf := append(out.buf, '[') // a local, so no append pays a write barrier
	for i, v := range ring {
		if len(buf) >= out.limit {
			out.buf = buf
			out.flush()
			buf = out.buf
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		start := len(buf)
		buf = net.AppendLabel(buf, int(v))
		if !plain && !plainJSON(buf[start:]) {
			q, _ := json.Marshal(string(buf[start:]))
			buf = append(buf[:start-1], q...)
			continue
		}
		buf = append(buf, '"')
	}
	out.buf = append(buf, ']')
}

// plainJSON reports whether encoding/json, with HTML escaping on,
// writes every byte of b verbatim inside a string.
func plainJSON(b []byte) bool {
	for _, c := range b {
		if !plainByte[c] {
			return false
		}
	}
	return true
}

// plainByte marks the bytes encoding/json writes verbatim inside a
// string with HTML escaping on: ASCII from ' ' to DEL but '"', '\',
// '<', '>' and '&'.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c <= 0x7f; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// chunkSize is the capacity of the pooled chunk WriteRing streams a body
// through, and chunkSlack the room it keeps for the label that crosses
// the flush point, so a body of any length costs one chunk.
const (
	chunkSize  = 64 << 10
	chunkSlack = 1 << 10
)

// chunks pools WriteRing's chunks.
var chunks = sync.Pool{New: func() any { return new([]byte) }}

// WriteRing writes under status, with Content-Length, the JSON body
// made of head, ring as an array of net's labels, and tail.  The body is
// streamed to w through one pooled chunk of at most chunkSize bytes, so
// no buffer grows with the ring.  The length is exact: for labels of one
// shape (topology.LabelShape) it is known from the ring length, and
// otherwise a counting pass renders the labels once more without
// writing them.
func WriteRing[T int | int32](w http.ResponseWriter, status int, head []byte, net topology.Network, ring []T, tail []byte) {
	chunk := chunks.Get().(*[]byte)
	if *chunk == nil {
		*chunk = make([]byte, 0, chunkSize)
	}
	width, plain := topology.LabelShape(net)
	n := 2 // the brackets
	if plain && len(ring) > 0 {
		n = len(ring)*(width+3) + 1 // quotes and a separator per label, but the last
	} else if !plain {
		count := labelSink{buf: (*chunk)[:0], limit: chunkSize - chunkSlack}
		renderLabels(&count, net, ring, false)
		count.flush()
		n = count.n
	}
	writeHeader(w, status, len(head)+n+len(tail))
	out := labelSink{w: w, buf: (*chunk)[:0], limit: chunkSize - chunkSlack}
	out.write(head)
	renderLabels(&out, net, ring, plain)
	out.write(tail)
	out.flush()
	*chunk = out.buf
	chunks.Put(chunk)
}

// writeBody writes a complete JSON body with its Content-Length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	writeHeader(w, status, len(body))
	w.Write(body)
}

// writeHeader writes the header of a JSON body of n bytes.
func writeHeader(w http.ResponseWriter, status, n int) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
}
