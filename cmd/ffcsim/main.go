// Command ffcsim regenerates Tables 2.1 and 2.2 of Rowley–Bose: the size
// of the component containing R = 0…01 and the eccentricity of R in B(d,n)
// with f randomly distributed faulty necklaces.
//
// Usage:
//
//	ffcsim                     # both paper tables (B(2,10) and B(4,5))
//	ffcsim -d 2 -n 10          # one table
//	ffcsim -d 4 -n 5 -trials 5000 -seed 7 -faults 0,1,2,5 -workers 8
//
// Trials are sharded across the worker pool with per-trial PCG streams,
// so the tables are bit-identical for a fixed seed at any -workers value.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"debruijnring/internal/ffc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run checks the command line args, prints the tables to stdout and
// returns the exit status: 2, with a usage line on stderr and nothing
// printed, for a command line it cannot run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ffcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	d := fs.Int("d", 0, "arity (0 = run both paper configurations)")
	n := fs.Int("n", 0, "word length (with -d)")
	trials := fs.Int("trials", 1000, "trials per fault count")
	seed := fs.Uint64("seed", 1991, "RNG seed")
	workers := fs.Int("workers", 0, "simulation worker count (0 = GOMAXPROCS); results are identical for any value")
	faultList := fs.String("faults", "", "comma-separated fault counts (default: the paper's column)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "ffcsim: "+format+"\n", args...)
		return 2
	}

	counts := ffc.DefaultFaultCounts
	if *faultList != "" {
		counts = nil
		for _, tok := range strings.Split(*faultList, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || v < 0 {
				return usage("bad fault count %q", tok)
			}
			counts = append(counts, v)
		}
	}

	if *trials < 0 {
		return usage("-trials %d is negative", *trials)
	}
	type config struct {
		d, n  int
		title string
	}
	configs := []config{{2, 10, "Table 2.1"}, {4, 5, "Table 2.2"}}
	switch {
	case *d != 0 && *n == 0:
		return usage("-n required with -d")
	case *d == 0 && *n != 0:
		return usage("-n needs -d")
	case *d != 0:
		if *d < 2 || *n < 1 {
			return usage("B(%d,%d) needs d ≥ 2 and n ≥ 1", *d, *n)
		}
		if !exceedsNodes(ffc.MaxNodes+1, *d, *n) { // dⁿ > ffc.MaxNodes
			return usage("B(%d,%d) has more than the 2^31 nodes the FFC kernels index", *d, *n)
		}
		configs = []config{{*d, *n, fmt.Sprintf("B(%d,%d) simulation", *d, *n)}}
	}
	for _, c := range configs {
		for _, f := range counts {
			if exceedsNodes(f, c.d, c.n) {
				return usage("fault count %d exceeds the %d^%d nodes of B(%d,%d)", f, c.d, c.n, c.d, c.n)
			}
		}
	}

	for _, c := range configs {
		fmt.Fprintf(stdout, "%s (%d trials per row, seed %d)\n", c.title, *trials, *seed)
		rows := ffc.SimulateWorkers(c.d, c.n, counts, *trials, *seed, *workers)
		ffc.WriteTable(stdout, c.d, c.n, rows)
		fmt.Fprintln(stdout)
	}
	return 0
}

// exceedsNodes reports whether f is more than dⁿ, the node count of
// B(d,n), without computing dⁿ past f.
func exceedsNodes(f, d, n int) bool {
	size := 1
	for i := 0; i < n; i++ {
		if size > f/d {
			return false
		}
		size *= d
	}
	return f > size
}
