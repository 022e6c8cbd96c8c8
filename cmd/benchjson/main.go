// Command benchjson runs `go test -bench` and renders the results as
// machine-readable JSON, the regression artifact behind the BENCH_*.json
// files checked in at the repo root and emitted by the CI bench smoke job.
//
// Usage:
//
//	benchjson                                  # Table 2.1/2.2 benchmarks → stdout
//	benchjson -bench 'Table21|Table22' -benchtime 5x -label dense -out BENCH_dense.json
//	benchjson -pkg ./... -bench . -count 3
//	benchjson -pkg '. ./internal/repair' -bench 'SessionEventLarge|RingApply'
//	benchjson -bench 'Table21|Table22' -compare BENCH_dense.json -tolerance 0.25
//
// The output records, per benchmark, iterations, ns/op, B/op, allocs/op,
// MB/s when reported and the GOMAXPROCS suffix of the result line, plus
// the environment header (goos, goarch, cpu) so two artifacts can be
// compared meaningfully.
//
// With -compare, the fresh run is checked against a baseline artifact:
// any benchmark present in both whose ns/op regressed by more than
// -tolerance (a fraction; 0.25 = +25%) fails the run with exit status 1
// — the regression gate of the CI bench job — and so does any benchmark
// the run measured that has no baseline entry.  Allocation counts are
// machine-independent and gated strictly at the same tolerance; bytes
// per op are gated at the separate, looser -bytes-tolerance (short CI
// runs amortize one-time pool growth over fewer iterations, so B/op
// needs more headroom than allocs/op — the gate still catches the
// order-of-magnitude map-rebuild regressions it exists for).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	// Procs is the GOMAXPROCS suffix of the result line (the host's
	// core count unless overridden); 0 when the line carries none.
	Procs int `json:"procs,omitempty"`
}

// Report is the full JSON artifact.
type Report struct {
	Label      string      `json:"label,omitempty"`
	Date       string      `json:"date"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	CPU        string      `json:"cpu,omitempty"`
	Package    string      `json:"package,omitempty"`
	Bench      string      `json:"bench"`
	Benchtime  string      `json:"benchtime,omitempty"`
	Count      int         `json:"count"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkTable21-8   3   34624236 ns/op   9878968 B/op   11386 allocs/op
//	BenchmarkCopy        5   1234 ns/op       812.44 MB/s
//
// B/op and allocs/op are extracted separately so custom b.ReportMetric
// units (e.g. FleetRebalance's drainretries/op) sitting between ns/op
// and the -benchmem columns don't silently drop them from the artifact.
var (
	benchLine = regexp.MustCompile(
		`^(Benchmark[^\s]+?)(?:-(\d+))?\s+(\d+)\s+([\d.]+) ns/op`)
	mbLine     = regexp.MustCompile(`\s([\d.]+) MB/s`)
	bytesLine  = regexp.MustCompile(`\s(\d+) B/op`)
	allocsLine = regexp.MustCompile(`\s(\d+) allocs/op`)
)

func main() {
	bench := flag.String("bench", "Table21|Table22", "benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "", "go test -benchtime value (e.g. 1x, 5x, 2s); empty = default")
	count := flag.Int("count", 1, "go test -count value")
	pkg := flag.String("pkg", ".", "package patterns to benchmark, separated by spaces")
	out := flag.String("out", "", "output file (empty = stdout)")
	label := flag.String("label", "", "free-form label recorded in the artifact (e.g. baseline, dense)")
	compare := flag.String("compare", "", "baseline artifact to gate against (exit 1 on regression)")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional ns/op and allocs/op regression vs the baseline")
	bytesTolerance := flag.Float64("bytes-tolerance", 0.5, "allowed fractional bytes/op regression vs the baseline")
	flag.Parse()

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem", "-count", strconv.Itoa(*count)}
	if *benchtime != "" {
		args = append(args, "-benchtime", *benchtime)
	}
	args = append(args, strings.Fields(*pkg)...)

	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go %s: %v\n%s", strings.Join(args, " "), err, buf.String())
		os.Exit(1)
	}

	report := Report{
		Label:     *label,
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Package:   *pkg,
		Bench:     *bench,
		Benchtime: *benchtime,
		Count:     *count,
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			report.CPU = cpu
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b := Benchmark{Name: strings.TrimPrefix(m[1], "Benchmark")}
		b.Procs, _ = strconv.Atoi(m[2])
		b.Iterations, _ = strconv.ParseInt(m[3], 10, 64)
		b.NsPerOp, _ = strconv.ParseFloat(m[4], 64)
		if mm := mbLine.FindStringSubmatch(line); mm != nil {
			b.MBPerS, _ = strconv.ParseFloat(mm[1], 64)
		}
		if mm := bytesLine.FindStringSubmatch(line); mm != nil {
			b.BytesPerOp, _ = strconv.ParseInt(mm[1], 10, 64)
		}
		if mm := allocsLine.FindStringSubmatch(line); mm != nil {
			b.AllocsPerOp, _ = strconv.ParseInt(mm[1], 10, 64)
		}
		report.Benchmarks = append(report.Benchmarks, b)
	}
	if len(report.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmarks matched %q in %s\n", *bench, *pkg)
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(report.Benchmarks), *out)
	}

	if *compare != "" {
		regressions, err := compareBaseline(*compare, report, *tolerance, *bytesTolerance)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) beyond %.0f%% or missing baselines vs %s:\n",
				len(regressions), *tolerance*100, *compare)
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "  "+r)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no regressions beyond %.0f%% vs %s\n", *tolerance*100, *compare)
	}
}

// compareBaseline gates the fresh report against a baseline artifact:
// benchmarks present in both must not regress in ns/op or allocs/op by
// more than the tolerance fraction, nor in bytes/op by more than the
// (looser) bytesTolerance fraction.  A benchmark the run measured but
// the baseline lacks is a failure too, named in the result, so a gated
// run can never pass a benchmark silently: record its baseline first.
// Baseline entries the run did not measure are ignored.
func compareBaseline(path string, report Report, tolerance, bytesTolerance float64) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseline := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	var regressions []string
	matched := 0
	for _, b := range report.Benchmarks {
		ref, ok := baseline[b.Name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: no baseline entry in %s", b.Name, path))
			continue
		}
		matched++
		if ref.NsPerOp > 0 && b.NsPerOp > ref.NsPerOp*(1+tolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f ns/op vs baseline %.0f (%+.0f%%)",
				b.Name, b.NsPerOp, ref.NsPerOp, 100*(b.NsPerOp/ref.NsPerOp-1)))
		}
		if ref.AllocsPerOp > 0 && float64(b.AllocsPerOp) > float64(ref.AllocsPerOp)*(1+tolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %d allocs/op vs baseline %d (%+.0f%%)",
				b.Name, b.AllocsPerOp, ref.AllocsPerOp,
				100*(float64(b.AllocsPerOp)/float64(ref.AllocsPerOp)-1)))
		}
		if ref.BytesPerOp > 0 && float64(b.BytesPerOp) > float64(ref.BytesPerOp)*(1+bytesTolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %d B/op vs baseline %d (%+.0f%%)",
				b.Name, b.BytesPerOp, ref.BytesPerOp,
				100*(float64(b.BytesPerOp)/float64(ref.BytesPerOp)-1)))
		}
	}
	if matched == 0 {
		return nil, fmt.Errorf("baseline %s shares no benchmarks with this run (bench %q)", path, report.Bench)
	}
	return regressions, nil
}
