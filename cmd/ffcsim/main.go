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
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"debruijnring/internal/ffc"
)

func main() {
	d := flag.Int("d", 0, "arity (0 = run both paper configurations)")
	n := flag.Int("n", 0, "word length")
	trials := flag.Int("trials", 1000, "trials per fault count")
	seed := flag.Uint64("seed", 1991, "RNG seed")
	workers := flag.Int("workers", 0, "simulation worker count (0 = GOMAXPROCS); results are identical for any value")
	faultList := flag.String("faults", "", "comma-separated fault counts (default: the paper's column)")
	flag.Parse()

	counts := ffc.DefaultFaultCounts
	if *faultList != "" {
		counts = nil
		for _, tok := range strings.Split(*faultList, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || v < 0 {
				usage("bad fault count %q", tok)
			}
			counts = append(counts, v)
		}
	}

	if *trials < 0 {
		usage("-trials %d is negative", *trials)
	}
	type config struct {
		d, n  int
		title string
	}
	configs := []config{{2, 10, "Table 2.1"}, {4, 5, "Table 2.2"}}
	if *d != 0 {
		if *n == 0 {
			usage("-n required with -d")
		}
		if *d < 2 || *n < 1 {
			usage("B(%d,%d) needs d ≥ 2 and n ≥ 1", *d, *n)
		}
		configs = []config{{*d, *n, fmt.Sprintf("B(%d,%d) simulation", *d, *n)}}
	}
	for _, c := range configs {
		for _, f := range counts {
			if exceedsNodes(f, c.d, c.n) {
				usage("fault count %d exceeds the %d^%d nodes of B(%d,%d)", f, c.d, c.n, c.d, c.n)
			}
		}
	}

	for _, c := range configs {
		fmt.Printf("%s (%d trials per row, seed %d)\n", c.title, *trials, *seed)
		rows := ffc.SimulateWorkers(c.d, c.n, counts, *trials, *seed, *workers)
		ffc.WriteTable(os.Stdout, c.d, c.n, rows)
		fmt.Println()
	}
}

// usage reports a bad command line and exits with status 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ffcsim: "+format+"\n", args...)
	os.Exit(2)
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
