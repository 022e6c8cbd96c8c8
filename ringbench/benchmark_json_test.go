package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics
// in step with what the command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no set-up", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the command has %d", names, len(workloads))
	}
	check := func(kind string, listed []struct{ Name, Unit string }, want [][2]string) {
		var got [][2]string
		for _, m := range listed {
			got = append(got, [2]string{m.Name, m.Unit})
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s metrics in BENCHMARK.json\n%v\ndiffer from the command's\n%v", kind, got, want)
		}
	}
	check("end-to-end", spec.EndToEnd, e2eUnits)
	check("per-layer", spec.PerLayer, layerUnits)
}
