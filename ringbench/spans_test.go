package main

import "testing"

func TestSelfTimeSubtractsCoveredPart(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 40},  // overlaps the first: [10,40] counted once
		{Start: 90, End: 120}, // clipped to [90,100]
		{Start: -5, End: 2},   // clipped to [0,2]
		{Start: 150, End: 160},
	}
	if got := selfTime(parent, children); got != 58 {
		t.Errorf("self time %d, want 100-30-10-2 = 58", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children %d, want 100", got)
	}
}

// TestHTTPLayersAttribution matches one request's spans by id: the
// router's self time excludes the primary span it caused, and transport
// is the client span minus the outermost server span.
func TestHTTPLayersAttribution(t *testing.T) {
	spans := []span{
		{ID: 7, Layer: "client", Kind: "event", Start: -10_000, End: 110_000},
		{ID: 7, Layer: "router", Kind: "event", Start: 0, End: 100_000},
		{ID: 7, Layer: "primary", Kind: "event", Start: 20_000, End: 80_000},
		{Layer: "standby", Kind: "append", Start: 30_000, End: 50_000, Bytes: 300},
	}
	m := map[string]float64{}
	httpLayers(spans, []opRec{{kind: "event"}}, m)
	for name, want := range map[string]float64{
		"fleet.router.self_p50_us":        40,
		"session.http.server_p50_us":      60,
		"session.http.transport_p50_us":   20,
		"fleet.replica.append_p50_us":     20,
		"fleet.replica.appends_per_event": 1,
		"fleet.replica.bytes_per_event":   300,
		"session.http.read_server_p50_us": 0,
	} {
		if m[name] != want {
			t.Errorf("%s = %g, want %g", name, m[name], want)
		}
	}
}
