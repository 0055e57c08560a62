package main

// -compare a.json b.json: the before/after table every later claim is
// read from. Bounds and directions come from BENCHMARK.json.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// manifest is the part of BENCHMARK.json -compare needs.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	// Workloads is the subset of the catalogue the driver runs.
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// find returns the metrics of one (workload, trace mode) run of a report.
func (r *report) find(workload string, traced bool) (metrics, *result) {
	for i := range r.Results {
		if res := &r.Results[i]; res.Workload == workload && res.Traced == traced {
			return res.Metrics, res
		}
	}
	return nil, nil
}

// worsening is the share of a by which b is worse, given the metric's
// direction; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareReports prints, per end-to-end metric and workload, both
// values, the relative change and the bound. Reports made with another
// seed or window length did different work and are refused. A value that
// is missing or not positive is a violation: a broken run must not pass
// as an improvement. A pair whose per-round spread (round_spread of
// either report's run) is wider than the bound is unresolved, neither a
// pass nor a violation: the host was too noisy to tell. Any other pair
// that worsens beyond its bound, and any failed operation, is a
// violation.
func compareReports(out io.Writer, pathA, pathB string) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	man, err := readManifest(root)
	if err != nil {
		return err
	}
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	if err := comparable(a, b); err != nil {
		return err
	}
	violations := compareTable(out, man, a, b)
	if violations > 0 {
		return fmt.Errorf("%d violation(s)", violations)
	}
	return nil
}

// comparable refuses two reports that did different work.
func comparable(a, b *report) error {
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		return fmt.Errorf("reports are not comparable: seed %d with %gs windows against seed %d with %gs",
			a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	return nil
}

// compareTable compares every workload report a ran untraced, not only
// the ones BENCHMARK.json gates: the bounds are per metric.
func compareTable(out io.Writer, man *manifest, a, b *report) (violations int) {
	fmt.Fprintf(out, "%-18s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	compared := 0
	for i := range a.Results {
		ra := &a.Results[i]
		if ra.Traced {
			continue
		}
		compared++
		name, ma := ra.Workload, ra.Metrics
		mb, rb := b.find(name, false)
		if mb == nil {
			fmt.Fprintf(out, "%-18s missing from b\n", name)
			violations++
			continue
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Fprintf(out, "%-18s failed operations: a=%d b=%d\n", name, ra.Failed, rb.Failed)
			violations++
		}
		spread := max(ra.RoundSpread, rb.RoundSpread) - 1
		for _, def := range man.EndToEnd {
			va, vb := ma[def.Name].Value, mb[def.Name].Value
			if !(va > 0 && vb > 0) { // also catches NaN
				fmt.Fprintf(out, "%-18s %-16s %14.4f %14.4f %9s %6.0f%%  VIOLATION (missing or not positive)\n",
					name, def.Name, va, vb, "", 100*def.Bound)
				violations++
				continue
			}
			worse := worsening(va, vb, def.Better)
			verdict := "ok"
			switch {
			case spread > def.Bound && def.Name != "setup_s":
				verdict = fmt.Sprintf("unresolved (round spread %.0f%%)", 100*spread)
			case worse > def.Bound:
				verdict = "VIOLATION"
				violations++
			}
			fmt.Fprintf(out, "%-18s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				name, def.Name, va, vb, 100*(vb-va)/va, 100*def.Bound, verdict)
		}
	}
	if compared == 0 {
		fmt.Fprintln(out, "a has no untraced run")
		violations++
	}
	return violations
}
