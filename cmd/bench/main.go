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
	"slices"
	"strconv"
	"strings"

	"graphsql/internal/bench"
)

// experiments is the one list -exp is validated against and the run
// loop walks, so a name cannot be accepted without being run.
var experiments = []struct {
	name string
	run  func(bench.Options) error
}{
	{"table1", bench.Table1},
	{"fig1a", bench.Fig1a},
	{"fig1b", bench.Fig1b},
	{"baselines", bench.Baselines},
	{"phases", bench.Phases},
	{"queues", bench.DijkstraQueues},
	{"dynindex", bench.DynamicIndex},
}

// parsePositive parses a comma-separated list of positive integers.
func parsePositive(flagName, s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("-%s: %q is not a positive integer (want a comma-separated list of integers >= 1)", flagName, p)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseArgs defines the flags on fs, parses args and returns the
// experiment to run (or "all") with its options. Values the drivers
// cannot run with — an unknown experiment, a non-positive size or
// count, a negative worker budget — are rejected here, before any
// dataset is generated.
func parseArgs(fs *flag.FlagSet, args []string) (string, bench.Options, error) {
	names := make([]string, len(experiments))
	for i, x := range experiments {
		names[i] = x.name
	}
	valid := "all | " + strings.Join(names, " | ")
	exp := fs.String("exp", "all", "experiment: "+valid)
	sfs := fs.String("sf", "1,3,10", "comma-separated scale factors")
	shrink := fs.Int("shrink", 10, "divide dataset sizes by this factor (1 = paper size)")
	pairs := fs.Int("pairs", 20, "random pairs per configuration")
	batches := fs.String("batches", "1,2,4,8,16,32,64,128", "figure 1b batch sizes")
	seed := fs.Uint64("seed", 42, "workload seed")
	workers := fs.Int("workers", 0, "engine parallelism (0 = one worker per CPU)")
	if err := fs.Parse(args); err != nil {
		return "", bench.Options{}, err
	}

	var o bench.Options
	if *exp != "all" && !slices.Contains(names, *exp) {
		return "", o, fmt.Errorf("-exp: unknown experiment %q (valid: %s)", *exp, valid)
	}
	if *shrink <= 0 {
		return "", o, fmt.Errorf("-shrink: %d is not a positive integer (1 = paper size)", *shrink)
	}
	if *pairs <= 0 {
		return "", o, fmt.Errorf("-pairs: %d is not a positive integer", *pairs)
	}
	if *workers < 0 {
		return "", o, fmt.Errorf("-workers: %d is negative (0 = one worker per CPU, N >= 1 = N workers)", *workers)
	}
	sfList, err := parsePositive("sf", *sfs)
	if err != nil {
		return "", o, err
	}
	batchList, err := parsePositive("batches", *batches)
	if err != nil {
		return "", o, err
	}
	o = bench.Options{
		SFs:         sfList,
		Shrink:      *shrink,
		Pairs:       *pairs,
		BatchSizes:  batchList,
		Seed:        *seed,
		Parallelism: *workers,
	}
	return *exp, o, nil
}

func main() {
	exp, o, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		// Parse errors already exited 2 (flag.ExitOnError); a rejected
		// value exits 2 the same way.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	o.Out = os.Stdout
	for _, x := range experiments {
		if exp != "all" && exp != x.name {
			continue
		}
		if err := x.run(o); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", x.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
