// Command ringbench is the repository's benchmark.  It runs one named
// workload against in-process servers on loopback, checks every output
// against the paper's guarantees, and prints its metrics as the last
// line of standard output:
//
//	ringbench --workload fleet-mixed --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the window alternately untraced and traced, then drives the layers
// directly, and reports the per-layer metrics.  See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// bench is one set-up workload.
type bench interface {
	// load runs the timed window [from, until) of the run's clock.
	load(clk clock, from, until time.Duration, errs *errLog) loadResult
	// verify is the untimed end-of-run oracle.
	verify(errs *errLog)
	// layers fills the per-layer metrics from the traced window's spans
	// and records and from direct layer calls; dir is scratch space.
	layers(dir string, spans []span, recs []opRec, m map[string]float64, errs *errLog)
	// offPath names the metric prefixes of layers the workload's traffic
	// does not reach, and the B(d,n) a side probe prices them on.
	offPath() (prefixes []string, d, n int)
	close()
}

type loadResult struct {
	recs       []opRec
	checkMean  time.Duration // closed loop: mean per-client time in untimed checks
	backlogMax int
}

func (r *loadResult) add(o loadResult) {
	r.recs = append(r.recs, o.recs...)
	r.checkMean += o.checkMean
	r.backlogMax = max(r.backlogMax, o.backlogMax)
}

// workloads maps each workload to its set-up.  BENCHMARK.json records
// why each exists; README.md records their parameters.
var workloads = map[string]func(seed int64, dir string, conns int, rec *recorder) (bench, error){
	"fleet-mixed": func(seed int64, dir string, conns int, rec *recorder) (bench, error) {
		return asBench(setupSessions(sessionsConfig{d: 2, n: 10, sessions: 16, fleet: true,
			rate: 400, readShare: 0.2, maxLive: 4, warmup: 4, replayCap: 4096, embedSets: 200}, seed, dir, conns, rec))
	},
	"session-large": func(seed int64, dir string, conns int, rec *recorder) (bench, error) {
		return asBench(setupSessions(sessionsConfig{d: 2, n: 16, sessions: 4,
			readEvery: 16, maxLive: 4, warmup: 2, replayCap: 256, embedSets: 32}, seed, dir, conns, rec))
	},
	"cold-embed": func(seed int64, _ string, conns int, rec *recorder) (bench, error) {
		return asBench(setupEmbed(embedConfig{d: 2, n: 16, maxFaults: 16, repeatEvery: 4, recent: 64,
			warmup: 4, embedSets: 32}, seed, conns, rec))
	},
}

// asBench keeps a failed set-up's nil pointer out of the interface.
func asBench[B bench](b B, err error) (bench, error) {
	if err != nil {
		return nil, err
	}
	return b, nil
}

// e2eUnits and layerUnits name every reported metric with its unit, in
// report order; BENCHMARK.json lists the same names.
var e2eUnits = [][2]string{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"op_p50_ms", "ms"},
	{"read_p50_ms", "ms"}, {"alloc_kb_per_op", "KiB/op"}, {"live_heap_mb", "MiB"},
}

var layerUnits = [][2]string{
	{"fleet.router.self_p50_us", "us"}, {"fleet.router.self_p99_us", "us"},
	{"fleet.replica.append_p50_us", "us"}, {"fleet.replica.appends_per_event", "count/event"},
	{"fleet.replica.bytes_per_event", "bytes/event"},
	{"session.http.server_p50_us", "us"}, {"session.http.read_server_p50_us", "us"},
	{"session.http.transport_p50_us", "us"},
	{"session.event_p50_us", "us"}, {"session.event_p99_us", "us"}, {"session.self_p50_us", "us"},
	{"session.journal.append_p50_us", "us"}, {"session.journal.append_p99_us", "us"},
	{"session.journal.bytes_per_event", "bytes"}, {"session.journal.snapshot_bytes", "bytes"},
	{"repair.patch_p50_us", "us"}, {"repair.unpatch_p50_us", "us"}, {"repair.reembed_p50_us", "us"},
	{"repair.local_ratio", "ratio"}, {"repair.reembed_ratio", "ratio"},
	{"topology.verify_p50_us", "us"},
	{"engine.miss_p50_ms", "ms"}, {"engine.hit_p50_us", "us"}, {"engine.hit_ratio", "ratio"},
	{"engine.overhead_p50_us", "us"},
	{"ffc.embed_p50_ms", "ms"}, {"ffc.embed_serial_p50_ms", "ms"}, {"ffc.parallel_speedup", "ratio"},
	{"ffc.alloc_kb_per_embed", "KiB"}, {"ffc.allocs_per_embed", "count"},
	{"loadgen.late_p99_ms", "ms"}, {"loadgen.backlog_max", "count"},
	{"runtime.gc_cycles_per_kop", "count/kop"}, {"runtime.gc_pause_p99_us", "us"},
	{"trace.overhead_p50_us", "us"},
}

// traceBlocks is how many alternately untraced and traced stretches a
// traced run splits its window into, so that drift over the window does
// not read as tracing overhead.
const traceBlocks = 8

// setupRuns is how many times a run sets its workload up; setup_s is
// the median.
const setupRuns = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: fleet-mixed, session-large or cold-embed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	scratchRoot := flag.String("scratch", ".bench_build/tmp", "directory for journals; emptied on exit")
	spansDir := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ringbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*scratchRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ringbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*scratchRoot, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	conns := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("# ringbench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("# host cores=%d gomaxprocs=%d cpu=%q go=%s client_conns=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), conns)

	rec := newRecorder()
	var b bench
	var setups samples
	for k := 0; k < setupRuns; k++ {
		start := time.Now()
		bk, err := setup(*seed, filepath.Join(scratch, fmt.Sprint("setup", k)), conns, rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ringbench: set-up:", err)
			return 1
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < setupRuns-1 {
			bk.close()
		} else {
			b = bk
		}
	}
	defer b.close()

	runtime.GC()
	total0, steal0 := cpuTimes()
	errs := &errLog{}
	clk := realClock{start: time.Now()}
	window := time.Duration(*seconds) * time.Second
	blocks := 1
	if *trace == 1 {
		blocks = traceBlocks
	}
	var plain, traced loadResult
	var alloc uint64
	var gcs uint32
	var pauses samples
	for i := 0; i < blocks; i++ {
		on := i%2 == 1
		rec.on.Store(on)
		var a, z runtime.MemStats
		runtime.ReadMemStats(&a)
		r := b.load(clk, window*time.Duration(i)/time.Duration(blocks), window*time.Duration(i+1)/time.Duration(blocks), errs)
		runtime.ReadMemStats(&z)
		if on {
			traced.add(r)
			continue
		}
		plain.add(r)
		alloc += z.TotalAlloc - a.TotalAlloc
		gcs += z.NumGC - a.NumGC
		for n := a.NumGC + 1; n <= z.NumGC && n+256 > z.NumGC; n++ {
			pauses = append(pauses, us(int64(z.PauseNs[(n+255)%256])))
		}
	}
	rec.on.Store(false)
	total1, steal1 := cpuTimes()
	fmt.Printf("# host cpu stolen during the window: %.1f%%\n", 100*ratio(float64(steal1-steal0), float64(total1-total0)))
	var heap runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heap)
	b.verify(errs)

	s := summarize(plain)
	m := map[string]float64{}
	if *trace == 0 {
		m["setup_s"] = setups.median()
		m["ops_per_s"] = s.opsPerS
		m["op_p50_ms"] = blockQuantile(plain.recs, false, 50, *seconds)
		m["read_p50_ms"] = blockQuantile(plain.recs, true, 50, *seconds)
		p90, _ := s.op.tail(90)
		p99, used := s.op.tail(99)
		fmt.Printf("# primary-op tail, reported but not gated (it tracks host CPU steal): p90 %.4f ms, p%g %.4f ms of %d ops\n", p90, used, p99, len(s.op))
		m["alloc_kb_per_op"] = ratio(float64(alloc)/1024, float64(s.completed))
		m["live_heap_mb"] = float64(heap.HeapAlloc) / (1 << 20)
	} else {
		t := summarize(traced)
		m["trace.overhead_p50_us"] = (t.op.median() - s.op.median()) * 1e3
		m["loadgen.late_p99_ms"], _ = s.late.tail(99)
		m["loadgen.backlog_max"] = float64(plain.backlogMax)
		m["runtime.gc_cycles_per_kop"] = ratio(float64(gcs)*1000, float64(s.completed))
		m["runtime.gc_pause_p99_us"], _ = pauses.tail(99)
		spans, _ := rec.since(0)
		b.layers(filepath.Join(scratch, "replay"), spans, traced.recs, m, errs)
		if prefixes, d, n := b.offPath(); len(prefixes) > 0 {
			probe := probeLayers(d, n, *seed, filepath.Join(scratch, "probe"), errs)
			for _, u := range layerUnits {
				for _, p := range prefixes {
					if strings.HasPrefix(u[0], p) {
						m[u[0]] = probe[u[0]]
					}
				}
			}
		}
		err := os.MkdirAll(*spansDir, 0o755)
		if err == nil {
			err = writeSpans(filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)), spans)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ringbench: writing spans:", err)
		}
	}

	units := e2eUnits
	if *trace == 1 {
		units = layerUnits
	}
	out := result{Metrics: map[string]metric{}}
	for _, u := range units {
		v, ok := m[u[0]]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			panic("ringbench: metric " + u[0] + " not measured")
		}
		out.Metrics[u[0]] = metric{Value: v, Unit: u[1]}
		fmt.Printf("%-34s %14.4f %s\n", u[0], v, u[1])
	}
	out.Attempted = len(plain.recs) + len(traced.recs)
	out.Failed = errs.n
	out.Correct = errs.n == 0
	fmt.Printf("# ops: %d attempted, %d failed, fail_ratio %.6f; untraced: %d primary ops, %d reads\n",
		out.Attempted, out.Failed, ratio(float64(out.Failed), float64(out.Attempted)), len(s.op), len(s.read))
	for _, msg := range errs.msgs {
		fmt.Fprintln(os.Stderr, "ringbench: violation:", msg)
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// summary is one window's op statistics, in milliseconds.
type summary struct {
	op, read, late samples
	completed      int
	opsPerS        float64
}

// summarize reads the records of a window that starts at 0.  Throughput
// is completed ops over the elapsed time, less the time closed-loop
// clients spent in untimed checks.
func summarize(r loadResult) summary {
	var s summary
	var last time.Duration
	for _, o := range r.recs {
		last = max(last, o.done)
		if o.failed {
			continue
		}
		s.completed++
		if o.kind == "read" {
			s.read = append(s.read, ms(int64(o.latency())))
		} else {
			s.op = append(s.op, ms(int64(o.latency())))
		}
		s.late = append(s.late, ms(int64(o.late())))
	}
	s.opsPerS = ratio(float64(s.completed), (last - r.checkMean).Seconds())
	return s
}

// blockQuantile is the median over the window's one-second stretches of
// each stretch's q-th percentile latency (ms) of the reads or of the
// primary ops, so a stall or a burst of host contention in part of a run
// moves the result less than a whole-window percentile would.  Stretches
// are merged until each holds enough ops for its percentile to have
// minBeyond samples beyond it.
func blockQuantile(recs []opRec, reads bool, q float64, seconds int) float64 {
	var ops []opRec
	var first, last time.Duration = math.MaxInt64, 0
	for _, o := range recs {
		if !o.failed && (o.kind == "read") == reads {
			ops = append(ops, o)
			first, last = min(first, o.due), max(last, o.due)
		}
	}
	need := int(math.Ceil(minBeyond/(1-q/100))) + 1
	blocks := max(1, min(seconds, len(ops)/need))
	per := make([]samples, blocks)
	for _, o := range ops {
		b := int(int64(o.due-first) * int64(blocks) / int64(last-first+1))
		per[b] = append(per[b], ms(int64(o.latency())))
	}
	var vals samples
	for _, p := range per {
		v, _ := p.tail(q)
		vals = append(vals, v)
	}
	return vals.median()
}

// cpuTimes reads the host's cumulative CPU jiffies, total and stolen by
// the hypervisor, so a result can say how contended its host was.
func cpuTimes() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// cpuModel reads the processor model name, for the result's host line.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
