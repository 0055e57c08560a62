package graph

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"graphsql/internal/fault"
	"graphsql/internal/par"
)

// Spec describes one CHEAPEST SUM evaluation over a graph: the edge
// weights (in edge-table row order) and whether the caller needs the
// path itself in addition to its cost. Exactly one of the weight
// fields is set; Unit marks a constant weight expression, for which the
// solver uses BFS and multiplies the hop count (the "optimized built-in
// algorithm" choice of §1/§4).
type Spec struct {
	// WeightsI holds strictly positive integer weights per edge row.
	WeightsI []int64
	// WeightsF holds strictly positive float weights per edge row.
	WeightsF []float64
	// Unit marks a constant weight; UnitI/UnitF hold the constant.
	Unit  bool
	UnitI int64
	UnitF float64
	// Float reports whether the cost type is DOUBLE.
	Float bool
	// NeedPath requests path reconstruction.
	NeedPath bool
	// ForceBinaryHeap disables the radix queue for integer weights
	// (used by the E5 ablation only).
	ForceBinaryHeap bool
}

// Solution holds per-pair results of a batched shortest-path request.
type Solution struct {
	// Reached[i] reports whether pair i's destination is reachable.
	Reached []bool
	// CostI[s][i] / CostF[s][i] hold the cost of pair i under spec s.
	CostI [][]int64
	CostF [][]float64
	// Paths[s][i] holds the edge-table rows of one shortest path for
	// pair i under spec s (nil for unreachable pairs and empty paths).
	Paths [][][]int32
}

// Solver computes batched many-to-many shortest paths over one CSR,
// optionally extended by a Delta of appended edges (§6 graph-index
// updates). It groups pairs by source so each distinct source runs a
// single traversal that serves all its destinations (the batching that
// figure 1b shows amortizes graph construction), with early exit once
// every destination of the group is settled. Over a graph that carries
// its transpose, a group with one destination and no weights or paths
// to compute searches from both ends instead (runBiBFS).
//
// Source groups are independent — each writes a disjoint set of pair
// indices of the Solution — so large batches are drained by a pool of
// workers, each owning its private traversal scratch. The CSR, the
// Delta and the weight vectors are shared read-only. Scheduling cannot
// change any output value, so parallel runs are bit-identical to
// sequential ones.
type Solver struct {
	g     *CSR
	delta *Delta
	n     int // total vertices (CSR + delta growth)
	// Parallelism caps the number of solve workers; <= 0 means
	// runtime.GOMAXPROCS(0). Parallelism is across source groups only:
	// every traversal runs on one worker, so a single-source query uses
	// one core. Small batches run on one worker regardless (the size
	// gate).
	Parallelism int
	// Ctx carries optional cancellation (client disconnects, server
	// timeouts). It is checked at the source-group boundary and inside
	// every traversal every cancelCheckInterval pops, so a canceled
	// query aborts a single in-flight traversal within milliseconds
	// rather than running it to completion.
	Ctx context.Context
	// OnLevel, when non-nil, receives one (level, frontier size,
	// direction) sample per BFS level of every traversal: level 0 is
	// the source itself, or the destination for the backward half of a
	// bidirectional search. Source groups run concurrently, so the
	// callback must be safe for concurrent use and samples from distinct
	// sources may interleave. Observation only — it cannot affect
	// results. Nil is free.
	OnLevel func(level int64, size int, backward bool)
}

// NewSolver returns a solver for g.
func NewSolver(g *CSR) *Solver {
	return &Solver{g: g, n: g.N}
}

// NewSolverWithDelta returns a solver over a snapshot CSR plus the
// edges appended since (delta may be nil).
func NewSolverWithDelta(g *CSR, delta *Delta) *Solver {
	n := g.N
	if delta != nil && delta.N > n {
		n = delta.N
	}
	return &Solver{g: g, delta: delta, n: n}
}

// takeScratch returns idle scratch from the graph's pool, or a fresh
// one. A pooled scratch shorter than n is dropped: the delta has grown
// the graph since it was made.
func (s *Solver) takeScratch() *search {
	if sc, ok := s.g.pool.Get().(*search); ok && len(sc.wanted) >= s.n {
		return sc
	}
	return newSearch(s.n)
}

// ValidateWeights checks the strict positivity requirement of §2 and
// returns a descriptive error naming the first offending edge row.
// Every weight that is not > 0 is rejected, NaN included (NaN compares
// false against everything, so the test is written as !(w > 0)).
func ValidateWeights(spec *Spec) error {
	if spec.Unit {
		if spec.Float {
			if !(spec.UnitF > 0) {
				return fmt.Errorf("CHEAPEST SUM: weight %v is not strictly positive", spec.UnitF)
			}
		} else if spec.UnitI <= 0 {
			return fmt.Errorf("CHEAPEST SUM: weight %d is not strictly positive", spec.UnitI)
		}
		return nil
	}
	for i, w := range spec.WeightsI {
		if w <= 0 {
			return fmt.Errorf("CHEAPEST SUM: edge row %d has non-positive weight %d", i, w)
		}
	}
	for i, w := range spec.WeightsF {
		if !(w > 0) {
			return fmt.Errorf("CHEAPEST SUM: edge row %d has non-positive weight %v", i, w)
		}
	}
	return nil
}

// groupSpan is one source group: order[lo:hi] holds the pair indices
// sharing a source vertex.
type groupSpan struct{ lo, hi int }

// Solve computes reachability (and the costs/paths requested by specs)
// for the given parallel src/dst pair arrays. Entries with src or dst
// equal to NoVertex are reported unreachable (their keys were not
// vertices of the graph). Weight positivity must have been validated.
func (s *Solver) Solve(srcs, dsts []VertexID, specs []Spec) (*Solution, error) {
	if len(srcs) != len(dsts) {
		return nil, fmt.Errorf("graph: %d sources vs %d destinations", len(srcs), len(dsts))
	}
	n := len(srcs)
	sol := &Solution{
		Reached: make([]bool, n),
		CostI:   make([][]int64, len(specs)),
		CostF:   make([][]float64, len(specs)),
		Paths:   make([][][]int32, len(specs)),
	}
	for k, spec := range specs {
		if spec.Float {
			sol.CostF[k] = make([]float64, n)
		} else {
			sol.CostI[k] = make([]int64, n)
		}
		if spec.NeedPath {
			sol.Paths[k] = make([][]int32, n)
		}
	}

	// Group pair indices by source vertex.
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if srcs[i] != NoVertex && dsts[i] != NoVertex {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(srcs[a], srcs[b]) })

	groups := make([]groupSpan, 0, 16)
	for at := 0; at < len(order); {
		src := srcs[order[at]]
		end := at
		for end < len(order) && srcs[order[end]] == src {
			end++
		}
		groups = append(groups, groupSpan{at, end})
		at = end
	}

	if len(groups) == 0 {
		return sol, nil
	}
	workers := s.solveWorkers(len(groups))
	scratch := make([]*search, workers)
	for w := range scratch {
		scratch[w] = s.takeScratch()
	}
	// canceled latches the first failure observation so remaining groups
	// drain as no-ops instead of starting new traversals; failOnce keeps
	// the first group's actual error so it is reported verbatim (it is
	// not always a cancellation — injected faults travel this path too).
	var canceled atomic.Bool
	var failOnce sync.Once
	var failErr error
	par.Indexed(workers, len(groups), func(worker, i int) {
		if canceled.Load() || (s.Ctx != nil && s.Ctx.Err() != nil) {
			canceled.Store(true)
			return
		}
		group := order[groups[i].lo:groups[i].hi]
		if err := s.solveGroup(scratch[worker], srcs[group[0]], group, dsts, specs, sol); err != nil {
			canceled.Store(true)
			failOnce.Do(func() { failErr = err })
		}
	})
	// The scratch goes back to the graph only here: a traversal that
	// panicked unwinds past this point, so its scratch is dropped. It
	// must not keep this query's level callback (and trace) alive.
	for _, sc := range scratch {
		sc.onLevel = nil
		s.g.pool.Put(sc)
	}
	if canceled.Load() {
		// par.Indexed's barrier orders the failOnce write before this
		// read. A nil failErr means a worker observed s.Ctx canceled
		// before any group returned an error.
		if failErr != nil {
			return nil, failErr
		}
		return nil, s.Ctx.Err()
	}
	return sol, nil
}

// traversalWork estimates the cost of one full traversal: every vertex
// plus every edge (snapshot and delta).
func (s *Solver) traversalWork() int {
	work := s.n + s.g.NumEdges()
	if s.delta != nil {
		work += s.delta.Edges
	}
	return work
}

// solveWorkers picks the worker count for a batch of source groups:
// one unless the batch is large enough that goroutine overhead is noise
// against the traversal work. Each group traverses up to the whole
// graph; below the gate a single worker finishes before a pool would
// finish spinning up.
func (s *Solver) solveWorkers(groups int) int {
	return min(par.Gated(s.Parallelism, groups*s.traversalWork(), minParallelSolveWork), groups)
}

// bidirectional reports whether a source group searches from both
// ends, given its count of distinct destinations and its specs: it
// needs exactly one destination, a graph that carries its transpose,
// and only unit-weight specs without paths (REACHES, CHEAPEST SUM of a
// constant), because the bidirectional search yields one hop count and
// nothing else.
func (s *Solver) bidirectional(distinct int, specs []Spec) bool {
	if distinct != 1 || s.g.In == nil {
		return false
	}
	for k := range specs {
		if !specs[k].Unit || specs[k].NeedPath {
			return false
		}
	}
	return true
}

// solveGroup answers all pairs sharing one source vertex. It runs
// concurrently for distinct groups, so it must write only through its
// private scratch and the pair indices of its own group. A non-nil
// error means the traversal stopped mid-flight (cancellation or an
// injected fault) and the group's outputs are partial garbage the
// caller must discard.
func (s *Solver) solveGroup(sc *search, src VertexID, group []int, dsts []VertexID, specs []Spec, sol *Solution) error {
	if err := fault.Inject(fault.PointSolverGroup); err != nil {
		return err
	}
	// Mark the distinct destinations of this group.
	distinct := 0
	for _, i := range group {
		d := dsts[i]
		if !sc.wanted[d] {
			sc.wanted[d] = true
			distinct++
		}
	}
	defer func() {
		for _, i := range group {
			sc.wanted[dsts[i]] = false
		}
	}()

	// Reachability (and unit-weight costs) come from one BFS. If every
	// spec is weighted we still derive reachability from the first
	// weighted run instead, saving a traversal.
	needBFS := len(specs) == 0
	for _, spec := range specs {
		if spec.Unit {
			needBFS = true
		}
	}

	// The BFS results are read out before any Dijkstra run reuses the
	// scratch.
	reachedSet := false
	if needBFS {
		sc.onLevel = s.OnLevel
		// hopsTo reads a destination's hop count off the traversal.
		hopsTo := func(d VertexID) (int64, bool) { return sc.dist[d], sc.seen(d) }
		if s.bidirectional(distinct, specs) {
			hops, ok, err := sc.runBiBFS(s.g, s.delta, src, dsts[group[0]], s.Ctx)
			if err != nil {
				return err
			}
			hopsTo = func(VertexID) (int64, bool) { return hops, ok }
		} else if _, err := sc.runBFS(s.g, s.delta, src, sc.wanted, distinct, s.Ctx); err != nil {
			return err
		}
		for _, i := range group {
			_, sol.Reached[i] = hopsTo(dsts[i])
		}
		reachedSet = true
		for k := range specs {
			spec := &specs[k]
			if !spec.Unit {
				continue
			}
			for _, i := range group {
				d := dsts[i]
				hops, ok := hopsTo(d)
				if !ok {
					continue
				}
				if spec.Float {
					sol.CostF[k][i] = float64(hops) * spec.UnitF
				} else {
					sol.CostI[k][i] = hops * spec.UnitI
				}
				if spec.NeedPath {
					sol.Paths[k][i], _ = sc.pathTo(d)
				}
			}
		}
	}

	for k := range specs {
		spec := &specs[k]
		if spec.Unit {
			continue
		}
		var err error
		switch {
		case spec.WeightsF != nil:
			_, err = runHeap(sc, &sc.bqF, sc.floatDist(), s.g, s.delta, src, spec.WeightsF, sc.wanted, distinct, s.Ctx)
		case spec.ForceBinaryHeap:
			_, err = runHeap(sc, &sc.bqI, sc.dist, s.g, s.delta, src, spec.WeightsI, sc.wanted, distinct, s.Ctx)
		default:
			_, err = sc.runInt(s.g, s.delta, src, spec.WeightsI, sc.wanted, distinct, s.Ctx)
		}
		if err != nil {
			return err
		}
		for _, i := range group {
			d := dsts[i]
			ok := sc.settled(d)
			if !reachedSet {
				sol.Reached[i] = ok
			}
			if !ok {
				continue
			}
			if spec.Float {
				sol.CostF[k][i] = sc.distF[d]
			} else {
				sol.CostI[k][i] = sc.dist[d]
			}
			if spec.NeedPath {
				sol.Paths[k][i], _ = sc.pathTo(d)
			}
		}
		reachedSet = true
	}
	return nil
}
