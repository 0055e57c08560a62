package main

import (
	"math"
	"testing"
	"time"
)

// TestManifestMatchesCatalogue keeps BENCHMARK.json's metrics and the
// code's catalogue the same set, in the same units, and its workloads a
// subset of the code's, in the code's order.
func TestManifestMatchesCatalogue(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.EndToEnd) != len(endToEndMetrics) || len(man.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics; the code has %d and %d",
			len(man.EndToEnd), len(man.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, d := range endToEndMetrics {
		if m := man.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Bound != endToEndBound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", i, m, d)
		}
	}
	for i, d := range perLayerMetrics {
		if m := man.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, m, d)
		}
	}
	next := 0
	for _, m := range man.Workloads {
		for next < len(workloads) && workloads[next].name != m.Name {
			next++
		}
		if next == len(workloads) {
			t.Fatalf("workload %s of BENCHMARK.json is not in the code's list, or out of its order", m.Name)
		}
		next++
	}
}

// TestSmoke runs every workload end to end against a real gsqld on a
// 1/50 dataset with sub-second windows: every declared metric must come
// out finite, no operation may fail and every cache regime must hold.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts gsqld")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildGsqld(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{seed: 7, seconds: 500 * time.Millisecond, shrink: 50, root: root, bin: bin}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(cfg, w, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 20 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			defs := endToEndMetrics
			if traced {
				defs = perLayerMetrics
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
					t.Errorf("%s traced=%v: metric %s = %v (present %v)", w.name, traced, d.name, m.Value, ok)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, d.name)
				}
			}
		}
	}
}
