package session

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

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
	dst = append(dst, '[')
	for i, v := range ring {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		start := len(dst)
		dst = net.AppendLabel(dst, int(v))
		if !plainJSON(dst[start:]) {
			q, _ := json.Marshal(string(dst[start:]))
			dst = append(dst[:start-1], q...)
			continue
		}
		dst = append(dst, '"')
	}
	return append(dst, ']')
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

// labelsLen is the room AppendLabels takes for a ring of n labels of
// net, sized from the widest label (the last node's, in every built-in
// topology): exact when all labels are that wide.
func labelsLen(net topology.Network, n int) int {
	if n == 0 {
		return 2
	}
	w := len(net.AppendLabel(nil, net.Nodes()-1))
	return n*(w+3) + 1 // quotes and a separator per label, plus the brackets
}

// WriteRing writes under status, with Content-Length, the JSON body
// made of head, ring as an array of net's labels, and tail.  The body
// is built in one buffer sized from the ring length.
func WriteRing[T int | int32](w http.ResponseWriter, status int, head []byte, net topology.Network, ring []T, tail []byte) {
	body := make([]byte, 0, len(head)+labelsLen(net, len(ring))+len(tail))
	body = append(body, head...)
	body = AppendLabels(body, net, ring)
	writeBody(w, status, append(body, tail...))
}

// writeBody writes a complete JSON body with its Content-Length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}
