package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"debruijnring/engine"
	"debruijnring/session"
	"debruijnring/topology"
)

// embedResponse decodes a /v1/embed body.
type embedResponse struct {
	Ring  session.Labels `json:"ring"`
	Stats engine.Stats   `json:"stats"`
}

// postRaw posts body and returns the response body as sent, checking
// its status and Content-Length.
func postRaw(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d (%v): %s", url, resp.StatusCode, err, b)
	}
	if cl := resp.Header.Get("Content-Length"); cl != "" && cl != strconv.Itoa(len(b)) {
		t.Fatalf("POST %s: Content-Length %s for a %d-byte body", url, cl, len(b))
	}
	return b
}

// labelsOf renders a ring the way the labels-per-string encoder did.
func labelsOf(net topology.Network, ring []int) []string {
	out := make([]string, len(ring))
	for i, v := range ring {
		out[i] = net.Label(v)
	}
	return out
}

// encode is the json.Encoder rendering of v, trailing newline included.
func encode(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestEmbedBodyBytes pins the /v1/embed and /v1/disjoint-cycles bodies
// byte for byte against json.Encoder over []string labels, on
// topologies with plain and punctuated labels.
func TestEmbedBodyBytes(t *testing.T) {
	ts := newTestServer(t, false)
	for _, tc := range []struct {
		req    string
		faults topology.FaultSet
	}{
		{`{"topology":"debruijn(3,3)","node_faults":["020","112"]}`, topology.NodeFaults(6, 14)},
		{`{"topology":"debruijn(2,10)"}`, topology.FaultSet{}},
		{`{"topology":"butterfly(3,2)","edge_faults":[{"from":"(0,00)","to":"(1,10)"}]}`,
			topology.EdgeFaults(topology.Edge{From: 0, To: 1*9 + 3})}, // (0,00) → (1,10)
		{`{"topology":"hypercube(5)","node_faults":["00110"]}`, topology.NodeFaults(6)},
	} {
		got := postRaw(t, ts.URL+"/v1/embed", tc.req)
		var resp embedResponse
		if err := json.Unmarshal(got, &resp); err != nil {
			t.Fatal(err)
		}
		var spec struct{ Topology string }
		json.Unmarshal([]byte(tc.req), &spec)
		net, err := topology.FromSpec(spec.Topology)
		if err != nil {
			t.Fatal(err)
		}
		ring, _, err := net.EmbedRing(tc.faults)
		if err != nil {
			t.Fatal(err)
		}
		want := encode(t, struct {
			Ring  []string     `json:"ring"`
			Stats engine.Stats `json:"stats"`
		}{labelsOf(net, ring), resp.Stats})
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %.300s\nwant %.300s", tc.req, got, want)
		}
	}

	got := postRaw(t, ts.URL+"/v1/disjoint-cycles", `{"topology":"debruijn(4,2)","max_cycles":2}`)
	net, _ := topology.NewDeBruijn(4, 2)
	cycles, err := net.DisjointCycles()
	if err != nil {
		t.Fatal(err)
	}
	want := encode(t, struct {
		Count  int        `json:"count"`
		Length int        `json:"length"`
		Cycles [][]string `json:"cycles"`
	}{len(cycles), len(cycles[0]), [][]string{labelsOf(net, cycles[0]), labelsOf(net, cycles[1])}})
	if !bytes.Equal(got, want) {
		t.Errorf("disjoint-cycles:\n got %s\nwant %s", got, want)
	}
}

// TestVerifyBodyBytes pins the /v1/verify body, with the ring sent
// plain (the decoder's one-string path) and with escapes and whitespace
// (its encoding/json fallback).
func TestVerifyBodyBytes(t *testing.T) {
	ts := newTestServer(t, false)
	var emb embedResponse
	if err := json.Unmarshal(postRaw(t, ts.URL+"/v1/embed", `{"topology":"debruijn(3,3)","node_faults":["020"]}`), &emb); err != nil {
		t.Fatal(err)
	}
	plain, _ := json.Marshal([]string(emb.Ring))
	escaped := strings.Replace(string(plain), `"`+emb.Ring[0][:1], `"\u00`+strconv.FormatInt(int64(emb.Ring[0][0]), 16), 1)
	spaced := strings.ReplaceAll(string(plain), ",", ", ")
	for _, tc := range []struct{ ring, faults, want string }{
		{string(plain), `["020"]`, "{\"valid\":true,\"hamiltonian\":false}\n"},
		{escaped, `["020"]`, "{\"valid\":true,\"hamiltonian\":false}\n"},
		{spaced, `["020"]`, "{\"valid\":true,\"hamiltonian\":false}\n"},
		{string(plain), `["` + emb.Ring[3] + `"]`, "{\"valid\":false,\"hamiltonian\":false}\n"},
	} {
		req := `{"topology":"debruijn(3,3)","node_faults":` + tc.faults + `,"ring":` + tc.ring + `}`
		if got := postRaw(t, ts.URL+"/v1/verify", req); string(got) != tc.want {
			t.Errorf("%.120s: body %q, want %q", req, got, tc.want)
		}
	}
	if !strings.Contains(escaped, `\u00`) {
		t.Fatalf("escaped ring %q carries no escape", escaped)
	}
}
