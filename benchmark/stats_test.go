package main

import (
	"testing"
	"time"
)

func durations(n int) []time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		d[i] = time.Duration(i+1) * time.Millisecond
	}
	return d
}

func TestPercentileNearestRank(t *testing.T) {
	d := durations(200)
	for _, c := range []struct {
		q    float64
		want time.Duration
		ok   bool
	}{
		{0.50, 100 * time.Millisecond, true},
		{0.90, 180 * time.Millisecond, true},
		{0.95, 190 * time.Millisecond, true}, // exactly ten samples beyond
		{0.99, 198 * time.Millisecond, false},
	} {
		got, ok := percentile(d, c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(%v) = %v, %v; want %v, %v", c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(durations(199), 0.95); ok {
		t.Error("p95 of 199 samples has only nine beyond it and must not be supported")
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Error("percentile of no samples must be 0, unsupported")
	}
	if v, _ := percentile(durations(1), 0.5); v != time.Millisecond {
		t.Errorf("median of one sample = %v", v)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestLeastSquares(t *testing.T) {
	a, b := leastSquares([]float64{1, 8, 128}, []float64{12, 26, 266})
	if diff := a - 10; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("intercept = %v, want 10", a)
	}
	if diff := b - 2; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("slope = %v, want 2", b)
	}
}
