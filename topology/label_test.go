package topology

import (
	"encoding/json"
	"testing"
)

// TestAppendLabel checks every node of a small instance of each
// topology (including alphabets that reach the letters 'a'… and
// butterfly levels of two digits): AppendLabel renders exactly Label,
// Parse inverts it, appending keeps what dst already held, a dst with
// room costs no allocation, and every label is a string encoding/json
// writes verbatim with HTML escaping on — the invariant the session
// state body's label-by-label rendering relies on.
func TestAppendLabel(t *testing.T) {
	for _, spec := range []string{
		"debruijn(3,3)", "debruijn(12,2)", "kautz(2,3)", "kautz(11,2)",
		"shuffleexchange(3,3)", "butterfly(3,2)", "butterfly(2,11)", "hypercube(5)",
	} {
		net, err := FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		const prefix = `["x",`
		buf := make([]byte, 0, 64)
		for x := 0; x < net.Nodes(); x++ {
			label := net.Label(x)
			if got := string(net.AppendLabel(nil, x)); got != label {
				t.Fatalf("%s node %d: AppendLabel %q, Label %q", spec, x, got, label)
			}
			if y, err := net.Parse(label); err != nil || y != x {
				t.Fatalf("%s node %d: Parse(%q) = %d, %v", spec, x, label, y, err)
			}
			buf = net.AppendLabel(append(buf[:0], prefix...), x)
			if string(buf) != prefix+label {
				t.Fatalf("%s node %d: appended after a prefix: %q", spec, x, buf)
			}
			enc, err := json.Marshal(label)
			if err != nil || string(enc) != `"`+label+`"` {
				t.Fatalf("%s node %d: encoding/json rewrites label %q as %s", spec, x, label, enc)
			}
		}
		allocs := testing.AllocsPerRun(3, func() {
			for x := 0; x < net.Nodes(); x++ {
				buf = net.AppendLabel(buf[:0], x)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: AppendLabel into a buffer with room: %v allocs per pass", spec, allocs)
		}
	}
}
