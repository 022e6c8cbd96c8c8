package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestCompareBaselineNamesMissingEntries: a measured benchmark with no
// baseline entry fails the gate by name, next to ordinary regressions;
// baseline entries the run skipped are ignored.
func TestCompareBaselineNamesMissingEntries(t *testing.T) {
	base := Report{Benchmarks: []Benchmark{
		{Name: "Gated", NsPerOp: 100, AllocsPerOp: 10},
		{Name: "Slower", NsPerOp: 100},
		{Name: "NotRun", NsPerOp: 100},
	}}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	run := Report{Benchmarks: []Benchmark{
		{Name: "Gated", NsPerOp: 110, AllocsPerOp: 10},
		{Name: "Slower", NsPerOp: 200},
		{Name: "New", NsPerOp: 5},
		{Name: "Scaling/n=10", NsPerOp: 5},
	}}
	got, _, err := compareBaseline(path, run, 0.25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"Slower: 200 ns/op vs baseline 100 (+100%)",
		"New: no baseline entry in " + path,
		"Scaling/n=10: no baseline entry in " + path,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("compareBaseline =\n%q\nwant\n%q", got, want)
	}
}

// TestCompareBaselineNamesStaleEntries: an entry with fewer allocs/op
// than its baseline, or ns/op or B/op below it by more than that
// column's tolerance, is named stale once, all its won columns on one
// line; wins inside the tolerance and regressions are not.
func TestCompareBaselineNamesStaleEntries(t *testing.T) {
	base := Report{Benchmarks: []Benchmark{
		{Name: "Flat", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
		{Name: "FewerAllocs", NsPerOp: 100, AllocsPerOp: 10},
		{Name: "Faster", NsPerOp: 100},
		{Name: "Leaner", NsPerOp: 100, BytesPerOp: 1000},
		{Name: "AllWon", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 3},
		{Name: "Slower", NsPerOp: 100, AllocsPerOp: 2},
	}}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	run := Report{Benchmarks: []Benchmark{
		{Name: "Flat", NsPerOp: 76, BytesPerOp: 501, AllocsPerOp: 10},
		{Name: "FewerAllocs", NsPerOp: 100, AllocsPerOp: 9},
		{Name: "Faster", NsPerOp: 74},
		{Name: "Leaner", NsPerOp: 100, BytesPerOp: 499},
		{Name: "AllWon", NsPerOp: 50, BytesPerOp: 100},
		{Name: "Slower", NsPerOp: 200, AllocsPerOp: 1},
	}}
	regressions, stale, err := compareBaseline(path, run, 0.25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"Slower: 200 ns/op vs baseline 100 (+100%)"}; !slices.Equal(regressions, want) {
		t.Fatalf("regressions =\n%q\nwant\n%q", regressions, want)
	}
	want := []string{
		"FewerAllocs: 9 allocs/op vs baseline 10",
		"Faster: 74 ns/op vs baseline 100 (-26%)",
		"Leaner: 499 B/op vs baseline 1000 (-50%)",
		"AllWon: 0 allocs/op vs baseline 3, 50 ns/op vs baseline 100 (-50%), 100 B/op vs baseline 1000 (-90%)",
		"Slower: 1 allocs/op vs baseline 2",
	}
	if !slices.Equal(stale, want) {
		t.Fatalf("stale =\n%q\nwant\n%q", stale, want)
	}
}

// TestBestOfMergesRepeatedSamples: the samples -count repeats merge into
// one entry per benchmark, in first-seen order, each field its best.
func TestBestOfMergesRepeatedSamples(t *testing.T) {
	got := bestOf([]Benchmark{
		{Name: "A", Iterations: 10, NsPerOp: 300, BytesPerOp: 40, AllocsPerOp: 3, Procs: 2},
		{Name: "B/n=1", Iterations: 5, NsPerOp: 7, MBPerS: 1.5},
		{Name: "A", Iterations: 12, NsPerOp: 250, BytesPerOp: 48, AllocsPerOp: 2, Procs: 2},
		{Name: "A", Iterations: 11, NsPerOp: 280, BytesPerOp: 36, AllocsPerOp: 3, Procs: 2},
		{Name: "B/n=1", Iterations: 4, NsPerOp: 9, MBPerS: 2.5},
	})
	want := []Benchmark{
		{Name: "A", Iterations: 12, NsPerOp: 250, BytesPerOp: 36, AllocsPerOp: 2, Procs: 2},
		{Name: "B/n=1", Iterations: 5, NsPerOp: 7, MBPerS: 2.5},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("bestOf =\n%+v\nwant\n%+v", got, want)
	}
}
