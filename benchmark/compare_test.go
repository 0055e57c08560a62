package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestWorsening(t *testing.T) {
	if got := worsening(100, 120, "lower"); got != 0.2 {
		t.Errorf("latency 100 -> 120 worsens by %v, want 0.2", got)
	}
	if got := worsening(100, 80, "higher"); got != 0.2 {
		t.Errorf("qps 100 -> 80 worsens by %v, want 0.2", got)
	}
	if got := worsening(100, 120, "higher"); got >= 0 {
		t.Errorf("qps 100 -> 120 is an improvement, got %v", got)
	}
}

func TestCompareTable(t *testing.T) {
	var man manifest
	for _, d := range []struct {
		name, better string
		bound        float64
	}{{"qps", "higher", 0.10}, {"latency_p50_ms", "lower", 0.10}, {"setup_s", "lower", 0.25}} {
		man.EndToEnd = append(man.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{Name: d.name, Better: d.better, Bound: d.bound})
	}
	mk := func(qps, p50, setup, spread float64, failed int) *report {
		return &report{Results: []result{
			{Workload: "w", Failed: failed, RoundSpread: spread, Metrics: metrics{
				"qps": {Value: qps}, "latency_p50_ms": {Value: p50}, "setup_s": {Value: setup}}},
		}}
	}
	base := mk(1000, 1.0, 2.0, 1.02, 0)
	for _, c := range []struct {
		name       string
		b          *report
		violations int
		want       string
	}{
		{"within bounds", mk(950, 1.05, 2.4, 1.02, 0), 0, "ok"},
		{"better", mk(2000, 0.5, 1.0, 1.02, 0), 0, "ok"},
		{"qps regressed", mk(850, 1.0, 2.0, 1.02, 0), 1, "VIOLATION"},
		{"latency regressed", mk(1000, 1.2, 2.0, 1.02, 0), 1, "VIOLATION"},
		{"noisy host", mk(850, 1.2, 2.0, 1.15, 0), 0, "unresolved"},
		{"setup is never excused by round spread", mk(1000, 1.0, 2.6, 1.15, 0), 1, "VIOLATION"},
		{"failed operations", mk(1000, 1.0, 2.0, 1.02, 3), 1, "failed operations"},
		{"a zero is not an improvement", mk(1000, 0, 2.0, 1.02, 0), 1, "missing or not positive"},
		{"nor is a noisy zero", mk(0, 1.0, 2.0, 1.15, 0), 1, "missing or not positive"},
	} {
		var out bytes.Buffer
		if got := compareTable(&out, &man, base, c.b); got != c.violations {
			t.Errorf("%s: %d violations, want %d\n%s", c.name, got, c.violations, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.want, out.String())
		}
	}
	var out bytes.Buffer
	if got := compareTable(&out, &man, base, &report{}); got != 1 {
		t.Errorf("a report without the workload must be a violation, got %d", got)
	}
	if got := compareTable(&out, &man, &report{}, base); got != 1 {
		t.Errorf("an empty baseline must be a violation, got %d", got)
	}
	partial := mk(1000, 1.0, 2.0, 1.02, 0)
	delete(partial.Results[0].Metrics, "setup_s")
	if got := compareTable(&out, &man, partial, base); got != 1 {
		t.Errorf("a metric missing from a must be a violation, got %d", got)
	}
}

func TestComparable(t *testing.T) {
	a := &report{Seed: 42, Seconds: 5}
	if err := comparable(a, &report{Seed: 42, Seconds: 5}); err != nil {
		t.Errorf("same seed and window: %v", err)
	}
	for _, b := range []*report{{Seed: 7, Seconds: 5}, {Seed: 42, Seconds: 2}} {
		if comparable(a, b) == nil {
			t.Errorf("seed %d, %gs windows must not compare with seed 42, 5s", b.Seed, b.Seconds)
		}
	}
}
