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

// TestLabelShape checks LabelShape against every label: a network that
// reports a shape has every label that wide and written verbatim by
// encoding/json, and on the word and hypercube adapters the shape is
// reported exactly when that holds — the alphabet of 41 letters ends on
// DEL, the 42nd letter is past ASCII.  Butterfly labels report none.
func TestLabelShape(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		shape bool
	}{
		{"debruijn(2,5)", true}, {"debruijn(41,2)", true}, {"debruijn(42,2)", false}, {"debruijn(50,1)", false},
		{"shuffleexchange(3,3)", true}, {"shuffleexchange(41,1)", true}, {"shuffleexchange(42,1)", false},
		{"kautz(2,3)", true}, {"kautz(40,2)", true}, {"kautz(41,2)", false},
		{"hypercube(5)", true}, {"butterfly(3,2)", false},
	} {
		net, err := FromSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		width, ok := LabelShape(net)
		if ok != tc.shape {
			t.Errorf("%s: LabelShape ok = %v, want %v", tc.spec, ok, tc.shape)
		}
		verbatim := true
		for x := 0; x < net.Nodes(); x++ {
			label := net.Label(x)
			enc, _ := json.Marshal(label)
			if ok && len(label) != width {
				t.Fatalf("%s node %d: label %q is not %d bytes wide", tc.spec, x, label, width)
			}
			verbatim = verbatim && string(enc) == `"`+label+`"`
		}
		if ok && !verbatim {
			t.Errorf("%s: LabelShape reports a shape, but encoding/json rewrites a label", tc.spec)
		}
		if _, butterfly := net.(*Butterfly); !ok && verbatim && !butterfly {
			t.Errorf("%s: every label is written verbatim, but LabelShape reports no shape", tc.spec)
		}
	}
}
