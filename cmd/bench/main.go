// Command bench regenerates the paper's tables and figures (see
// DESIGN.md's experiment index). Example:
//
//	go run ./cmd/bench -exp all -sf 1,3 -shrink 10 -pairs 20
//
// shrink=1 reproduces the paper's full dataset sizes (SF 100/300 need
// tens of GB of RAM and long runtimes; the default shrink keeps runs
// laptop-sized while preserving the shapes).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"graphsql/internal/bench"
)

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("invalid integer %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	exp := flag.String("exp", "all", "experiment: table1 | fig1a | fig1b | baselines | phases | queues | dynindex | parallel | execpar | parse | trace | all")
	sfs := flag.String("sf", "1,3,10", "comma-separated scale factors")
	shrink := flag.Int("shrink", 10, "divide dataset sizes by this factor (1 = paper size)")
	pairs := flag.Int("pairs", 20, "random pairs per configuration")
	batches := flag.String("batches", "1,2,4,8,16,32,64,128", "figure 1b batch sizes")
	seed := flag.Uint64("seed", 42, "workload seed")
	workers := flag.String("workers", "", "comma-separated worker counts for -exp parallel (default 1,2,4,…,GOMAXPROCS); a single value also sets the engine parallelism of the other experiments")
	jsonPath := flag.String("json", "", "write machine-readable JSON results to this file (-exp parallel or execpar only)")
	flag.Parse()

	sfList, err := parseInts(*sfs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	batchList, err := parseInts(*batches)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	workerList, err := parseInts(*workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	o := bench.Options{
		SFs:        sfList,
		Shrink:     *shrink,
		Pairs:      *pairs,
		BatchSizes: batchList,
		Seed:       *seed,
		Workers:    workerList,
		Out:        os.Stdout,
	}
	if len(workerList) == 1 {
		o.Parallelism = workerList[0]
	}
	if *jsonPath != "" {
		// Exactly one experiment may own the JSON file: two encoders
		// appending to one file would produce an invalid document.
		if *exp != "parallel" && *exp != "execpar" && *exp != "parse" && *exp != "trace" {
			fmt.Fprintf(os.Stderr, "-json is only produced by -exp parallel, execpar, parse or trace, not %q\n", *exp)
			os.Exit(2)
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		o.JSONOut = f
	}

	run := func(name string, f func(bench.Options) error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(o); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	run("table1", bench.Table1)
	run("fig1a", bench.Fig1a)
	run("fig1b", bench.Fig1b)
	run("baselines", bench.Baselines)
	run("phases", bench.Phases)
	run("queues", bench.DijkstraQueues)
	run("dynindex", bench.DynamicIndex)
	run("parallel", bench.Parallel)
	run("execpar", bench.ExecPar)
	run("parse", bench.Parse)
	run("trace", bench.Trace)
}
