package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// ExecParPoint is one measurement of the -exp execpar experiment: a
// relational-operator-heavy LDBC workload executed with a fixed worker
// budget. Speedup is relative to the smallest worker count of the same
// (SF, workload) pair. The JSON field names are stable — downstream
// tooling tracks the perf trajectory across commits with them.
type ExecParPoint struct {
	Workload string  `json:"workload"`
	SF       int     `json:"sf"`
	Shrink   int     `json:"shrink"`
	Workers  int     `json:"workers"`
	Seconds  float64 `json:"seconds"`
	Speedup  float64 `json:"speedup"`
}

// execParWorkloads are the measured queries. Each leans on one
// parallelized operator; outer COUNT shells keep rendered outputs
// small without shrinking the inner operator's work. All run over the
// LDBC friends table (src, dst, creationDate, weight, iweight).
var execParWorkloads = []struct {
	name  string
	query string
}{
	// Friends-of-friends self-join: hash build over |E| rows, probe
	// emitting the two-hop pair multiset.
	{"join_fof", `SELECT COUNT(*) FROM friends a JOIN friends b ON a.dst = b.src AND a.src < b.dst`},
	// Merge-safe aggregation: partitioned pre-aggregation path.
	{"groupby_degree", `SELECT COUNT(*) FROM (
		SELECT src, COUNT(*) AS deg, MIN(dst) AS lo, MAX(dst) AS hi, SUM(iweight) AS tw
		FROM friends GROUP BY src) t WHERE t.deg > 0`},
	// Float AVG forces the general per-group accumulation path.
	{"groupby_avg", `SELECT COUNT(*) FROM (
		SELECT src % 512 AS b, AVG(weight) AS aw, SUM(weight) AS sw
		FROM friends GROUP BY src % 512) t WHERE t.aw >= 0`},
	// Full-table ORDER BY (the LIMIT applies after the sort).
	{"orderby", `SELECT src, dst, weight FROM friends ORDER BY weight DESC, src, dst LIMIT 10`},
	// Sharded dedup over a two-column key.
	{"distinct", `SELECT COUNT(*) FROM (SELECT DISTINCT src, dst % 16 FROM friends) t`},
	// Sharded multiset set operation.
	{"except_all", `SELECT COUNT(*) FROM (
		SELECT src, dst FROM friends EXCEPT ALL SELECT dst, src FROM friends WHERE iweight > 2) t`},
}

// execParReps runs per configuration; the minimum is reported to damp
// scheduler noise.
const execParReps = 3

// ExecPar runs the relational-operator scalability experiment: each
// workload swept over o.Workers. Every run's rendered result is
// compared against the smallest worker count's — the experiment
// doubles as a coarse differential check of the determinism guarantee
// on real workload sizes. When o.JSONOut is set the points are also
// emitted as a JSON array.
func ExecPar(o Options) error {
	o.Defaults()
	o.Workers = append([]int(nil), o.Workers...)
	sort.Ints(o.Workers)
	fmt.Fprintf(o.Out, "Relational-operator scalability: shrink=%d, GOMAXPROCS=%d\n",
		o.Shrink, runtime.GOMAXPROCS(0))
	fmt.Fprintf(o.Out, "%-6s %-16s %8s %14s %10s\n", "SF", "workload", "workers", "time (s)", "speedup")
	var points []ExecParPoint
	for _, sf := range o.SFs {
		e, _, err := Setup(sf, o.Shrink, o.Seed)
		if err != nil {
			return err
		}
		for _, wl := range execParWorkloads {
			var base float64
			var baseRender string
			for wi, w := range o.Workers {
				e.SetParallelism(w)
				best := time.Duration(1 << 62)
				var render string
				for r := 0; r < execParReps; r++ {
					start := time.Now()
					res, err := e.QueryCtx(context.Background(), wl.query)
					if err != nil {
						return fmt.Errorf("%s: %w", wl.name, err)
					}
					if d := time.Since(start); d < best {
						best = d
					}
					render = res.String()
				}
				if wi == 0 {
					base = best.Seconds()
					baseRender = render
				} else if render != baseRender {
					return fmt.Errorf("%s: workers=%d renders differently from workers=%d (determinism violation)",
						wl.name, w, o.Workers[0])
				}
				p := ExecParPoint{
					Workload: wl.name, SF: sf, Shrink: o.Shrink, Workers: w,
					Seconds: best.Seconds(),
				}
				if p.Seconds > 0 {
					p.Speedup = base / p.Seconds
				}
				points = append(points, p)
				fmt.Fprintf(o.Out, "%-6d %-16s %8d %14.6f %10.3f\n",
					sf, wl.name, w, p.Seconds, p.Speedup)
			}
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
