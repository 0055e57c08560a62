// Command benchdiff compares -exp parallel / -exp execpar / -exp
// parse / -exp trace JSON artifacts
// against a committed baseline (bench_baseline.json) and fails when a
// configuration regressed. Parallel-family points compare self-relative speedups —
// not absolute seconds — so the check is meaningful across hosts of
// the same shape; points whose baseline carries no parallel signal
// (speedup ≤ the signal floor, e.g. a single-core recording host) are
// skipped and reported. Parse points compare allocs/op, which is a
// deterministic property of the code rather than the host, so they arm
// the gate on ANY machine — including hosts whose parallel points all
// skip — and the tokenize stage is additionally held to a hard
// zero-allocation invariant that needs no baseline at all. Trace
// points compare the traced/untraced overhead ratio, which is likewise
// host-comparable because both sides of the ratio run on the same
// machine seconds apart.
//
//	go run ./cmd/benchdiff -baseline bench_baseline.json \
//	    -parallel parallel.json -execpar execpar.json \
//	    -parse parse.json -trace trace.json
//
// Record a fresh baseline with -record:
//
//	go run ./cmd/benchdiff -record -baseline bench_baseline.json \
//	    -parallel parallel.json -execpar execpar.json \
//	    -parse parse.json -trace trace.json
//
// Exit codes: 0 ok, 1 regression, 2 nothing compared (every point was
// skipped — the gate is unarmed, typically a baseline recorded on a
// host without parallel signal AND a run without parse points;
// re-record on the CI host class, or pass -allow-empty to accept an
// unarmed gate explicitly).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"graphsql/internal/bench"
)

// Baseline is the committed perf-trajectory reference: the bench
// artifacts plus a note about the host that recorded them.
type Baseline struct {
	Host     string                `json:"host"`
	Parallel []bench.ParallelPoint `json:"parallel"`
	ExecPar  []bench.ExecParPoint  `json:"execpar"`
	Parse    []bench.ParsePoint    `json:"parse,omitempty"`
	Trace    []bench.TracePoint    `json:"trace,omitempty"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func main() {
	baselinePath := flag.String("baseline", "bench_baseline.json", "baseline file")
	parallelPath := flag.String("parallel", "", "-exp parallel artifact")
	execparPath := flag.String("execpar", "", "-exp execpar artifact")
	parsePath := flag.String("parse", "", "-exp parse artifact")
	tracePath := flag.String("trace", "", "-exp trace artifact")
	allocSlack := flag.Float64("max-alloc-growth", 0.5, "fail when a parse stage's allocs/op exceeds baseline by more than this absolute slack")
	traceSlack := flag.Float64("max-trace-overhead-growth", 0.15, "fail when a workload's traced/untraced overhead ratio exceeds baseline by more than this absolute slack")
	threshold := flag.Float64("max-regression", 0.25, "fail when speedup drops by more than this fraction")
	signalFloor := flag.Float64("signal-floor", 1.05, "skip baseline points whose speedup is below this (no parallel signal)")
	minSeconds := flag.Float64("min-seconds", 0.002, "skip points faster than this (scheduler noise)")
	record := flag.Bool("record", false, "write the artifacts as the new baseline instead of comparing")
	host := flag.String("host", "", "host label stored with -record")
	allowEmpty := flag.Bool("allow-empty", false, "exit 0 even when every point was skipped (gate unarmed)")
	flag.Parse()

	var cur Baseline
	if *parallelPath != "" {
		if err := readJSON(*parallelPath, &cur.Parallel); err != nil {
			fatal(err)
		}
	}
	if *execparPath != "" {
		if err := readJSON(*execparPath, &cur.ExecPar); err != nil {
			fatal(err)
		}
	}
	if *parsePath != "" {
		if err := readJSON(*parsePath, &cur.Parse); err != nil {
			fatal(err)
		}
	}
	if *tracePath != "" {
		if err := readJSON(*tracePath, &cur.Trace); err != nil {
			fatal(err)
		}
	}

	if *record {
		cur.Host = *host
		data, err := json.MarshalIndent(&cur, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("baseline recorded to %s (%d parallel, %d execpar, %d parse, %d trace points)\n",
			*baselinePath, len(cur.Parallel), len(cur.ExecPar), len(cur.Parse), len(cur.Trace))
		return
	}

	var base Baseline
	if err := readJSON(*baselinePath, &base); err != nil {
		fatal(err)
	}

	type point struct {
		speedup float64
		seconds float64
	}
	basePar := map[string]point{}
	for _, p := range base.Parallel {
		basePar[fmt.Sprintf("sf%d/batch%d/w%d", p.SF, p.Batch, p.Workers)] = point{p.Speedup, p.QuerySeconds}
	}
	baseExec := map[string]point{}
	for _, p := range base.ExecPar {
		baseExec[fmt.Sprintf("%s/sf%d/w%d", p.Workload, p.SF, p.Workers)] = point{p.Speedup, p.Seconds}
	}

	compared, skipped, failures := 0, 0, 0
	check := func(key string, b point, speedup, seconds float64) {
		if b.speedup < *signalFloor || b.seconds < *minSeconds || seconds < *minSeconds {
			skipped++
			return
		}
		compared++
		drop := 1 - speedup/b.speedup
		status := "ok"
		if drop > *threshold {
			failures++
			status = "REGRESSION"
		}
		fmt.Printf("%-40s baseline %6.3fx  now %6.3fx  drop %+6.1f%%  %s\n",
			key, b.speedup, speedup, drop*100, status)
	}
	for _, p := range cur.Parallel {
		key := fmt.Sprintf("sf%d/batch%d/w%d", p.SF, p.Batch, p.Workers)
		if b, ok := basePar[key]; ok {
			check(key, b, p.Speedup, p.QuerySeconds)
		} else {
			skipped++
		}
	}
	for _, p := range cur.ExecPar {
		key := fmt.Sprintf("%s/sf%d/w%d", p.Workload, p.SF, p.Workers)
		if b, ok := baseExec[key]; ok {
			check(key, b, p.Speedup, p.Seconds)
		} else {
			skipped++
		}
	}
	// Parse points gate on allocs/op — deterministic per build, so no
	// signal or noise floor applies and they count as compared on any
	// host. The tokenize stage carries a hard invariant (0 allocs/op)
	// that holds even without a baseline entry.
	baseParse := map[string]float64{}
	for _, p := range base.Parse {
		baseParse[p.Stage] = p.AllocsPerOp
	}
	for _, p := range cur.Parse {
		key := "parse/" + p.Stage
		checked := false
		status := "ok"
		if p.Stage == "tokenize" {
			checked = true
			if p.AllocsPerOp > 0 {
				failures++
				status = "REGRESSION (tokenize must stay 0 allocs/op)"
			}
		}
		if b, ok := baseParse[p.Stage]; ok {
			checked = true
			if p.AllocsPerOp > b+*allocSlack {
				failures++
				status = "REGRESSION"
			}
			fmt.Printf("%-40s baseline %5.2f allocs/op  now %5.2f allocs/op  %s\n",
				key, b, p.AllocsPerOp, status)
		} else if checked {
			fmt.Printf("%-40s (no baseline)          now %5.2f allocs/op  %s\n",
				key, p.AllocsPerOp, status)
		}
		if checked {
			compared++
		} else {
			skipped++
		}
	}
	// Trace points gate on the traced/untraced overhead ratio — both
	// sides of the ratio run on the same machine, so it is comparable
	// across hosts and arms the gate anywhere, like the parse points.
	baseTrace := map[string]float64{}
	for _, p := range base.Trace {
		baseTrace[p.Workload] = p.OverheadRatio
	}
	for _, p := range cur.Trace {
		key := "trace/" + p.Workload
		b, ok := baseTrace[p.Workload]
		if !ok {
			skipped++
			fmt.Printf("%-40s (no baseline)          now %5.3fx overhead\n", key, p.OverheadRatio)
			continue
		}
		compared++
		status := "ok"
		if p.OverheadRatio > b+*traceSlack {
			failures++
			status = "REGRESSION"
		}
		fmt.Printf("%-40s baseline %5.3fx overhead  now %5.3fx overhead  %s\n",
			key, b, p.OverheadRatio, status)
	}
	fmt.Printf("\nbenchdiff: %d compared, %d skipped (no baseline match or below signal/noise floors), %d regression(s)\n",
		compared, skipped, failures)
	if base.Host != "" {
		fmt.Printf("baseline host: %s\n", base.Host)
	}
	if failures > 0 {
		os.Exit(1)
	}
	if compared == 0 && skipped > 0 && !*allowEmpty {
		fmt.Println("benchdiff: UNARMED — every point was skipped, so this run gated nothing.")
		fmt.Println("The committed baseline has no parallel signal (or does not match the run shapes).")
		fmt.Println("Re-record it on the CI host class:")
		fmt.Println("  go run ./cmd/benchdiff -record -baseline bench_baseline.json \\")
		fmt.Println("      -parallel parallel.json -execpar execpar.json -host \"$(nproc)-core ci\"")
		fmt.Println("then commit the file; or pass -allow-empty to accept an unarmed gate explicitly.")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
