package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"graphsql/internal/core"
)

// ParallelPoint is one measurement of the -exp parallel scalability
// experiment: the Fig-1b batched workload executed with a fixed worker
// budget. Speedup is relative to the smallest worker count of the same
// scale factor (the sweep is sorted), so a sweep including 1 reports
// true self-relative scaling. The JSON field names are stable — downstream
// tooling tracks the perf trajectory across commits with them.
type ParallelPoint struct {
	SF      int `json:"sf"`
	Shrink  int `json:"shrink"`
	Batch   int `json:"batch"`
	Workers int `json:"workers"`
	// BuildSeconds times graph construction (dictionary + CSR) alone.
	BuildSeconds float64 `json:"build_seconds"`
	// QuerySeconds times one batched many-to-many Q13 end to end.
	QuerySeconds float64 `json:"query_seconds"`
	// Speedup is baseline QuerySeconds / this QuerySeconds.
	Speedup float64 `json:"speedup"`
	// BuildSpeedup is the same ratio for BuildSeconds.
	BuildSpeedup float64 `json:"build_speedup"`
}

// parallelReps runs per configuration; the minimum is reported to damp
// scheduler noise.
const parallelReps = 3

// Parallel runs the multi-core scalability experiment: the Fig-1b
// batched workload (one many-to-many Q13 over `Batch` random pairs)
// and the isolated graph-construction phase, swept over o.Workers.
// When o.JSONOut is set the points are also emitted as a JSON array.
func Parallel(o Options) error {
	o.Defaults()
	// The speedup baseline is the smallest worker count; sort so an
	// unordered -workers list cannot invert the reported ratios.
	o.Workers = append([]int(nil), o.Workers...)
	sort.Ints(o.Workers)
	batch := o.BatchSizes[len(o.BatchSizes)-1]
	fmt.Fprintf(o.Out, "Parallel scalability: batched Q13 (batch=%d) and graph build, shrink=%d, GOMAXPROCS=%d\n",
		batch, o.Shrink, runtime.GOMAXPROCS(0))
	fmt.Fprintf(o.Out, "%-6s %8s %14s %14s %10s %10s\n",
		"SF", "workers", "build (s)", "query (s)", "speedup", "b.speedup")
	var points []ParallelPoint
	for _, sf := range o.SFs {
		e, ds, err := Setup(sf, o.Shrink, o.Seed)
		if err != nil {
			return err
		}
		friends, _ := e.Catalog().Table("friends")
		chunk := friends.Chunk()
		var baseQuery, baseBuild float64
		for wi, w := range o.Workers {
			e.SetParallelism(w)
			build, query := time.Duration(1<<62), time.Duration(1<<62)
			for r := 0; r < parallelReps; r++ {
				start := time.Now()
				if _, err := core.BuildGraphCtx(context.Background(), chunk, 0, 1, w); err != nil {
					return err
				}
				if d := time.Since(start); d < build {
					build = d
				}
				perPair, err := RunBatch(e, ds, batch, o.Seed)
				if err != nil {
					return err
				}
				if d := perPair * time.Duration(batch); d < query {
					query = d
				}
			}
			p := ParallelPoint{
				SF: sf, Shrink: o.Shrink, Batch: batch, Workers: w,
				BuildSeconds: build.Seconds(), QuerySeconds: query.Seconds(),
			}
			if wi == 0 {
				baseQuery, baseBuild = p.QuerySeconds, p.BuildSeconds
			}
			if p.QuerySeconds > 0 {
				p.Speedup = baseQuery / p.QuerySeconds
			}
			if p.BuildSeconds > 0 {
				p.BuildSpeedup = baseBuild / p.BuildSeconds
			}
			points = append(points, p)
			fmt.Fprintf(o.Out, "%-6d %8d %14.6f %14.6f %10.3f %10.3f\n",
				sf, w, p.BuildSeconds, p.QuerySeconds, p.Speedup, p.BuildSpeedup)
		}
	}
	if o.JSONOut != nil {
		enc := json.NewEncoder(o.JSONOut)
		enc.SetIndent("", "  ")
		if err := enc.Encode(points); err != nil {
			return err
		}
	}
	return nil
}
