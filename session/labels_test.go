package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
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

// recordWriter is a ResponseWriter keeping a copy of every Write apart.
type recordWriter struct {
	header http.Header
	status int
	writes [][]byte
}

func newRecordWriter() *recordWriter { return &recordWriter{header: http.Header{}} }

func (w *recordWriter) Header() http.Header { return w.header }

func (w *recordWriter) WriteHeader(status int) { w.status = status }

func (w *recordWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.writes = append(w.writes, bytes.Clone(p))
	return len(p), nil
}

// body returns every write, in order, as one body.
func (w *recordWriter) body() []byte { return bytes.Join(w.writes, nil) }

// checkRingBody checks what WriteRing sent to w against want: the same
// bytes, the status, a Content-Length of exactly its length, and no
// write past one chunk (a longer head or tail goes out in a write of
// its own).
func checkRingBody(t *testing.T, what string, w *recordWriter, status int, want []byte, head, tail []byte) {
	t.Helper()
	if got := w.body(); !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: body of %d bytes differs from encoding/json's %d at byte %d:\n got %.200s\nwant %.200s",
			what, len(got), len(want), i, got[i:], want[i:])
	}
	if w.status != status {
		t.Fatalf("%s: status %d, want %d", what, w.status, status)
	}
	if cl := w.header.Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Fatalf("%s: Content-Length %s for a %d-byte body", what, cl, len(want))
	}
	for i, p := range w.writes {
		if len(p) > chunkSize && !bytes.Equal(p, head) && !bytes.Equal(p, tail) {
			t.Fatalf("%s: write %d of %d bytes, past the %d-byte chunk", what, i, len(p), chunkSize)
		}
	}
}

// writeRingCase is one WriteRing input: a ring of node ids of a
// network, and the head and tail around it.
type writeRingCase struct {
	name       string
	spec       string
	ring       []int
	head, tail []byte
	firstWrite int // the length of WriteRing's first write, when pinned
}

// writeRingCases covers the body shapes of WriteRing: every node of
// networks with plain labels and of alphabets past 'z' (d = 41 reaches
// DEL, which encoding/json keeps, and d = 50 reaches bytes it rewrites,
// which must go to encoding/json; butterfly labels have no shape, so
// their length is counted), the empty ring, rings of several chunks,
// rings whose labels fill a chunk exactly to its flush point, and a
// head and a tail longer than a chunk.
func writeRingCases(t *testing.T) []writeRingCase {
	t.Helper()
	head, tail := []byte(`{"name":"x","ring":`), []byte(`,"stats":{"n":1}}`+"\n")
	var cases []writeRingCase
	add := func(name, spec string, ring []int) {
		cases = append(cases, writeRingCase{name: name, spec: spec, ring: ring, head: head, tail: tail})
	}
	for _, spec := range []string{"debruijn(3,4)", "butterfly(3,2)", "hypercube(5)", "kautz(2,3)", "debruijn(41,2)", "debruijn(50,2)"} {
		net := mustNet(t, spec)
		ring := make([]int, net.Nodes())
		for i := range ring {
			ring[i] = len(ring) - 1 - i
		}
		add("every node", spec, ring)
		add("empty", spec, []int{})
	}
	// Chunks of several labels: 16384 labels of 13 letters, and labels
	// that need escapes or counting, repeated past a chunk.
	for _, spec := range []string{"debruijn(2,14)", "debruijn(50,2)", "butterfly(3,2)"} {
		net := mustNet(t, spec)
		ring := make([]int, 16384)
		for i := range ring {
			ring[i] = (i * 7) % net.Nodes()
		}
		add("several chunks", spec, ring)
	}
	// With no head, m labels of 13 letters fill 16m bytes ('[' and the
	// first quote pair, then a separator and a quote pair each): the
	// chunk reaches its flush point after exactly limit/16 labels.
	const stride = 16
	limit := chunkSize - chunkSlack
	if limit%stride != 0 {
		t.Fatalf("the flush point %d is no whole number of %d-byte labels", limit, stride)
	}
	for _, m := range []int{limit/stride - 1, limit / stride, limit/stride + 1, 2 * limit / stride} {
		ring := make([]int, m)
		for i := range ring {
			ring[i] = i % (1 << 13)
		}
		c := writeRingCase{name: fmt.Sprintf("%d labels to the flush point", m), spec: "debruijn(2,13)", ring: ring}
		switch m {
		case limit / stride: // the ring ends at the flush point: one write
			c.firstWrite = limit + 1
		case limit/stride + 1: // the last label starts a new chunk
			c.firstWrite = limit
		}
		cases = append(cases, c)
	}
	big := bytes.Repeat([]byte(" "), chunkSize+7)
	cases = append(cases, writeRingCase{name: "head and tail past a chunk", spec: "debruijn(2,5)", ring: []int{0, 1, 3},
		head: append([]byte("{\"ring\":"), big...), tail: append(big, '}')})
	return cases
}

func mustNet(t *testing.T, spec string) topology.Network {
	t.Helper()
	net, err := topology.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestAppendLabelsMatchesEncoder compares AppendLabels, and the body
// WriteRing streams, with encoding/json over []string labels, on every
// case of writeRingCases.
func TestAppendLabelsMatchesEncoder(t *testing.T) {
	for _, c := range writeRingCases(t) {
		net := mustNet(t, c.spec)
		labels := make([]string, len(c.ring))
		for i, v := range c.ring {
			labels[i] = net.Label(v)
		}
		want, _ := json.Marshal(labels)
		what := c.spec + " " + c.name
		if got := AppendLabels([]byte("x"), net, c.ring); string(got) != "x"+string(want) {
			t.Errorf("%s: AppendLabels differs from encoding/json:\n got %.200s\nwant %.200s", what, got[1:], want)
		}
		w := newRecordWriter()
		WriteRing(w, http.StatusCreated, c.head, net, c.ring, c.tail)
		checkRingBody(t, what, w, http.StatusCreated, slices.Concat(c.head, want, c.tail), c.head, c.tail)
		if c.firstWrite > 0 && len(w.writes[0]) != c.firstWrite {
			t.Errorf("%s: first write of %d bytes, want %d", what, len(w.writes[0]), c.firstWrite)
		}
	}
}

// FuzzWriteRing streams a ring of a network from a short list — any
// node ids in range, any length — between a fuzzed head and tail, and
// holds the body and its Content-Length to head + json.Marshal(labels)
// + tail.
func FuzzWriteRing(f *testing.F) {
	specs := []string{"debruijn(2,6)", "debruijn(41,2)", "debruijn(50,2)", "butterfly(3,2)", "hypercube(4)", "kautz(2,3)"}
	f.Add(uint8(0), []byte{1, 2, 3}, uint16(0), []byte(`{"ring":`), []byte("}\n"))
	f.Add(uint8(2), []byte{255, 0, 7}, uint16(9000), []byte(nil), []byte(nil))
	f.Add(uint8(3), []byte{}, uint16(0), []byte("<&>"), []byte("\xff"))
	f.Fuzz(func(t *testing.T, pick uint8, ids []byte, repeat uint16, head, tail []byte) {
		net := mustNet(t, specs[int(pick)%len(specs)])
		ring := make([]int, 0, len(ids)+int(repeat))
		for i := 0; i < len(ids)+int(repeat); i++ {
			v := i
			if len(ids) > 0 {
				v = int(ids[i%len(ids)]) + i/len(ids)
			}
			ring = append(ring, v%net.Nodes())
		}
		labels := make([]string, len(ring))
		for i, v := range ring {
			labels[i] = net.Label(v)
		}
		want, _ := json.Marshal(labels)
		w := newRecordWriter()
		WriteRing(w, http.StatusOK, head, net, ring, tail)
		checkRingBody(t, net.Name(), w, http.StatusOK, slices.Concat(head, want, tail), head, tail)
	})
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
