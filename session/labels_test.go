package session

import (
	"encoding/json"
	"slices"
	"testing"

	"debruijnring/topology"
)

// FuzzLabelsUnmarshal checks Labels against decoding into a []string:
// the same values, the same nil-versus-empty, the same error presence —
// through json.Unmarshal and through UnmarshalJSON called directly on
// the raw bytes.
func FuzzLabelsUnmarshal(f *testing.F) {
	for _, seed := range []string{
		`null`, `[]`, `[ "a" ]`, `["0"]`, `["a\"b"]`, `["é","日本"]`, `[1]`, `["a",]`,
		`["000","001","011"]`, `[""]`, `["]"]`, `["a"]]`, `["a"`, `[,"a"]`, `["aA"]`, `["<&>"]`,
		`["a\\b"]`, `["\u0030"]`, "[\"\xff\"]", "[\"\x7f\"]",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []string
		wantErr := json.Unmarshal(data, &want)
		var viaJSON, direct Labels
		for _, got := range []struct {
			how string
			l   *Labels
			err error
		}{
			{"json.Unmarshal", &viaJSON, json.Unmarshal(data, &viaJSON)},
			{"UnmarshalJSON", &direct, direct.UnmarshalJSON(data)},
		} {
			if (got.err == nil) != (wantErr == nil) {
				t.Fatalf("%s(%q): error %v, []string decode error %v", got.how, data, got.err, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if (*got.l == nil) != (want == nil) || !slices.Equal(*got.l, want) {
				t.Fatalf("%s(%q) = %#v, []string decode %#v", got.how, data, *got.l, want)
			}
		}
	})
}

// TestAppendLabelsMatchesEncoder compares AppendLabels with
// encoding/json over []string labels, on every node of networks with
// plain labels and of alphabets past 'z': d = 41 reaches DEL, which
// encoding/json keeps, and d = 50 reaches bytes it rewrites, which
// AppendLabels must hand to encoding/json.
func TestAppendLabelsMatchesEncoder(t *testing.T) {
	for _, spec := range []string{"debruijn(3,4)", "butterfly(3,2)", "hypercube(5)", "kautz(2,3)", "debruijn(41,2)", "debruijn(50,2)"} {
		net, err := topology.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		ring := make([]int, net.Nodes())
		labels := make([]string, len(ring))
		for i := range ring {
			ring[i] = len(ring) - 1 - i
			labels[i] = net.Label(ring[i])
		}
		want, _ := json.Marshal(labels)
		if got := AppendLabels([]byte("x"), net, ring); string(got) != "x"+string(want) {
			t.Errorf("%s: AppendLabels differs from encoding/json:\n got %.200s\nwant %.200s", spec, got[1:], want)
		}
	}
}

// TestLabelsDecodeOneString: a ring body as AppendLabels writes it
// decodes to the same labels with two allocations (the string and the
// slice), whatever the ring length.
func TestLabelsDecodeOneString(t *testing.T) {
	net, err := topology.NewDeBruijn(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	ring := make([]int, net.Nodes())
	want := make([]string, len(ring))
	for i := range ring {
		ring[i] = (i * 7) % len(ring)
		want[i] = net.Label(ring[i])
	}
	body := AppendLabels(nil, net, ring)
	if enc, _ := json.Marshal(want); string(body) != string(enc) {
		t.Fatalf("AppendLabels differs from encoding/json:\n got %.200s\nwant %.200s", body, enc)
	}
	var got Labels
	allocs := testing.AllocsPerRun(5, func() {
		if err := got.UnmarshalJSON(body); err != nil {
			t.Fatal(err)
		}
	})
	if !slices.Equal(got, want) {
		t.Fatal("decoded labels differ")
	}
	if allocs > 2 {
		t.Errorf("decoding %d labels: %v allocs, want 2", len(ring), allocs)
	}
}
