// Command benchmark is the repository's end-to-end and per-layer
// benchmark: it builds the real gsqld binary, starts it as a child
// process, loads LDBC SNB SF1 over HTTP and drives named workloads in a
// closed loop, checking every answer against an independent oracle.
// See README.md in this directory.
//
//	bash benchmark/run.sh                                       # every workload, untraced and traced
//	bash benchmark/run.sh --workload q13_indexed --trace 0      # one run, as the driver makes it
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"graphsql/internal/ldbc"
)

// result is one (workload, trace mode) run.
type result struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted_ops"`
	Failed    int      `json:"failed_ops"`
	Failures  []string `json:"failures,omitempty"`
	// RoundSpread is max/min of the untraced window's per-round qps:
	// how much the host wandered while the run measured. -compare calls
	// a pair unresolved when it is wider than the metric's bound.
	RoundSpread float64 `json:"round_spread,omitempty"`
	Metrics     metrics `json:"metrics"`
}

// report is the result file: -out writes it, -compare reads two.
type report struct {
	// Claim is what the change under test claims to have gained; the
	// benchmark itself claims nothing.
	Claim   *string  `json:"claim"`
	Seed    uint64   `json:"seed"`
	Seconds float64  `json:"seconds"`
	Host    hostInfo `json:"host"`
	Results []result `json:"results"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"loadgen_gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

func host() hostInfo {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return hostInfo{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: strings.TrimSpace(string(kernel)),
	}
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds time.Duration
	shrink  int    // divides SF1; 1 except in the smoke test
	root    string // repository root
	bin     string // built gsqld
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	workloadFlag := flag.String("workload", "all", "workload name, comma-separated names, or all")
	seed := flag.Uint64("seed", 42, "seed of the dataset and of every request stream")
	seconds := flag.Float64("seconds", 30, "length of the timed window of one run")
	traceFlag := flag.Int("trace", -1, "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics), -1 = both")
	out := flag.String("out", "", "write the full report to this JSON file")
	compare := flag.Bool("compare", false, "compare two report files given as arguments and exit non-zero on a bound violation")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two report files")
		}
		return compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	var selected []*workload
	if *workloadFlag == "all" {
		selected = workloads
	} else {
		for _, name := range strings.Split(*workloadFlag, ",") {
			w := findWorkload(name)
			if w == nil {
				return fmt.Errorf("unknown workload %q", name)
			}
			selected = append(selected, w)
		}
	}
	var modes []bool
	switch *traceFlag {
	case -1:
		modes = []bool{false, true}
	case 0, 1:
		modes = []bool{*traceFlag == 1}
	default:
		return fmt.Errorf("-trace %d: want 0, 1 or -1", *traceFlag)
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	// The load generator shares the host's cores with gsqld. Measured on
	// the 2-core reference host, a single-threaded generator takes ~15%
	// off the latency of the sub-millisecond workloads and halves its
	// run-to-run spread; only the in-process harness raises this again.
	runtime.GOMAXPROCS(1)

	// Every published number is on full SF1 (Table 1 row 1); only the
	// smoke test shrinks it.
	cfg := &config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), shrink: 1}
	var err error
	if cfg.root, err = repoRoot(); err != nil {
		return err
	}
	if cfg.bin, err = buildGsqld(cfg.root); err != nil {
		return err
	}
	rep := &report{Seed: cfg.seed, Seconds: *seconds, Host: host()}
	failed := 0
	for _, w := range selected {
		for _, traced := range modes {
			res, err := runWorkload(cfg, w, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			defs := endToEndMetrics
			if traced {
				defs = perLayerMetrics
			}
			printMetrics(os.Stdout, w.name, defs, res.Metrics)
			fmt.Printf("%-18s %-40s %16d count\n%-18s %-40s %16d count\n",
				w.name, "attempted_ops", res.Attempted, w.name, "failed_ops", res.Failed)
			for _, note := range res.Failures {
				fmt.Fprintln(os.Stderr, "benchmark: FAILED:", note)
			}
			failed += res.Failed
			rep.Results = append(rep.Results, *res)
		}
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			return err
		}
	}
	if len(rep.Results) == 1 {
		// The driver's contract: the last line of standard output is one
		// JSON object describing the run.
		res := rep.Results[0]
		line, err := json.Marshal(map[string]any{
			"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
		})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runWorkload makes one run: a fresh gsqld, the workload's graph loaded
// over HTTP, then either the untraced window (end-to-end metrics) or
// the traced run (per-layer metrics: an untraced window for the outside
// view, a traced window for the span trees, and the in-process harness).
func runWorkload(cfg *config, w *workload, traced bool) (*result, error) {
	genStart := time.Now()
	ds, err := ldbc.Generate(ldbc.Config{SF: 1, Shrink: cfg.shrink, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	datagen := time.Since(genStart)
	e := newEnv(ds, cfg.seed)

	r, err := newRunner(e, w, cfg.bin)
	if err != nil {
		return nil, err
	}
	defer r.close()

	// setup_s is the median of several set-ups, each on a fresh server;
	// the traced run needs the graph only once.
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var loads, setups []time.Duration
	for i := 0; i < repeats; i++ {
		load, total, err := r.setup()
		if err != nil {
			return nil, err
		}
		loads, setups = append(loads, load), append(setups, total)
	}
	for _, g := range r.gens {
		g.prefill(w.byValue)
	}

	res := &result{Workload: w.name, Traced: traced}
	count := func(p *pass) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		res.Failures = append(res.Failures, p.notes...)
	}
	if !traced {
		p, err := r.measure(cfg.seconds, false)
		if err != nil {
			return nil, err
		}
		count(p)
		res.RoundSpread = roundSpread(p)
		res.Metrics = endToEnd(setups, p)
		res.Metrics.complete(endToEndMetrics)
		return res, nil
	}

	res.Metrics, err = tracedRun(cfg, r, datagen, loads[0], setups[0], count)
	if err != nil {
		return nil, err
	}
	res.Metrics.complete(perLayerMetrics)
	return res, nil
}

// tracedRun produces the per-layer metrics on a set-up runner.
func tracedRun(cfg *config, r *runner, datagen, load, setup time.Duration, count func(*pass)) (metrics, error) {
	m := metrics{}
	rec := newRecorder()
	plain, err := r.measure(cfg.seconds*2/5, false)
	if err != nil {
		return nil, err
	}
	count(plain)
	outsideView(r.w, plain, m)
	withTrace, err := r.measure(cfg.seconds*2/5, true)
	if err != nil {
		return nil, err
	}
	count(withTrace)
	spanView(withTrace, p50(plain.latencies(nil, false)), m)
	rssKB, hwmKB, err := r.srv.memory()
	if err != nil {
		return nil, err
	}
	m.set("proc.rss_mb", float64(rssKB)/1024)
	m.set("proc.peak_rss_mb", float64(hwmKB)/1024)
	m.set("setup.datagen_s", datagen.Seconds())
	m.set("setup.script_mb", float64(len(r.body))/(1<<20))
	m.set("setup.server_start_ms", ms(r.srv.startDur))
	m.set("setup.load_script_s", load.Seconds())
	m.set("setup.warmup_s", (setup - load).Seconds())
	m.set("setup.total_s", setup.Seconds())

	// The server has nothing more to answer; the harness gets the host.
	r.close()
	for i := range withTrace.samples {
		if s := &withTrace.samples[i]; i < maxRecordedRequests && s.tree != nil {
			rec.graft(i+1, withTrace.start.Sub(rec.epoch)+s.begin, s.latency, s.tree)
		}
	}
	calls, err := runHarness(r.e, r.w, rec)
	if err != nil {
		return nil, err
	}
	for name, v := range calls {
		m[name] = v
	}
	return m, rec.write(filepath.Join(cfg.root, "benchmark", "out", "trace-"+r.w.name+".json"))
}

// maxRecordedRequests bounds how many traced requests the span file
// keeps; the metrics use all of them.
const maxRecordedRequests = 64
