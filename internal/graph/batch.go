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
	"graphsql/internal/trace"
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
// its transpose, a group with no weights or paths to compute searches
// its destinations from both ends instead, one at a time (runBiBFS),
// for as long as that is projected to cost less than the one forward
// traversal (see searchBothEnds).
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
	// bidirectional search. The searches buffer their samples, and
	// Solve replays them on its own goroutine once the workers finish
	// (also when the solve fails), the samples of each worker in the
	// order it ran them. Observation only — it cannot affect results.
	// Nil is free.
	OnLevel func(level int64, size int, backward bool)
	// Trace and Span, when Trace is non-nil, receive the same samples
	// and the count of destinations searched from both ends and
	// forward, in one Trace.AddSolve call per solve.
	Trace *trace.Trace
	Span  trace.SpanID
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
// one, emptied of the last solve's samples and counts. A pooled
// scratch shorter than n is dropped: the delta has grown the graph
// since it was made.
func (s *Solver) takeScratch(record bool) *search {
	sc, ok := s.g.pool.Get().(*search)
	if !ok || len(sc.wanted) < s.n {
		sc = newSearch(s.n)
	}
	sc.record, sc.levels, sc.both, sc.forward = record, sc.levels[:0], 0, 0
	return sc
}

// report hands the level samples and search counts of every worker to
// OnLevel and to the trace span, once the workers have finished: no
// search takes a lock or calls out while it runs.
func (s *Solver) report(scratch []*search) {
	all := scratch[0]
	for _, sc := range scratch[1:] {
		all.levels = append(all.levels, sc.levels...)
		all.both += sc.both
		all.forward += sc.forward
	}
	if s.OnLevel != nil {
		for _, l := range all.levels {
			s.OnLevel(l.Level, l.Size, l.Backward)
		}
	}
	s.Trace.AddSolve(s.Span, all.levels, trace.Searches{Both: all.both, Forward: all.forward})
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
		scratch[w] = s.takeScratch(s.OnLevel != nil || s.Trace != nil)
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
	// panicked unwinds past this point, so its scratch is dropped.
	s.report(scratch)
	for _, sc := range scratch {
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

// bidirectional reports whether a source group may search its
// destinations from both ends: the graph carries its transpose, and
// every spec is unit-weight without a path (REACHES, CHEAPEST SUM of a
// constant), because the bidirectional search yields one hop count and
// nothing else.
func (s *Solver) bidirectional(specs []Spec) bool {
	if s.g.In == nil {
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
// private scratch and the pair indices of its own group (group is its
// own part of the solve's order, so it may reorder it). A non-nil
// error means a traversal stopped mid-flight (cancellation or an
// injected fault) and the group's outputs are partial garbage the
// caller must discard.
func (s *Solver) solveGroup(sc *search, src VertexID, group []int, dsts []VertexID, specs []Spec, sol *Solution) error {
	if err := fault.Inject(fault.PointSolverGroup); err != nil {
		return err
	}
	if s.bidirectional(specs) {
		answered, err := s.searchBothEnds(sc, src, group, dsts, specs, sol)
		if err != nil || answered == len(group) {
			return err
		}
		group = group[answered:]
	}
	return s.searchForward(sc, src, group, dsts, specs, sol)
}

// searchBothEnds answers a group's pairs one distinct destination at a
// time with runBiBFS. After each search it projects the searches still
// to run at the mean vertices reached per search so far; once that
// exceeds the vertices of the graph, which bound what one forward
// traversal reaches, it searches no more. It moves the pairs it
// answered to the front of group and returns their count;
// searchForward answers the rest. The switch depends only on the
// input, and hop counts are unique, so where it falls cannot change an
// answer.
//
// Work is counted in vertices reached, not edges scanned. Nearly every
// edge a search from both ends scans reaches a new vertex, while most
// of the edges one traversal scans lead to vertices it has already
// reached, so per edge scanned the searches cost several times more.
// Per vertex reached they cost less, since the traversal's vertices
// also pay for all the edges it scans: the switch errs early, towards
// the traversal.
func (s *Solver) searchBothEnds(sc *search, src VertexID, group []int, dsts []VertexID, specs []Spec, sol *Solution) (int, error) {
	// wanted marks the destinations not searched yet; answer holds the
	// hop count (-1: unreachable) of those searched.
	left := sc.mark(group, dsts)
	defer sc.unmark(group, dsts)
	if sc.answer == nil {
		sc.answer = make([]int32, len(sc.wanted))
	}
	searched, work, answered := 0, 0, 0
	for at, i := range group {
		d := dsts[i]
		if sc.wanted[d] {
			if searched > 0 && left*work > searched*s.n {
				continue
			}
			sc.both++
			hops, ok, err := sc.runBiBFS(s.g, s.delta, src, d, s.Ctx)
			if err != nil {
				return answered, err
			}
			if !ok {
				hops = -1
			}
			sc.wanted[d], sc.answer[d] = false, int32(hops)
			searched, work, left = searched+1, work+sc.reached, left-1
		}
		putHops(sol, specs, i, int64(sc.answer[d]))
		group[answered], group[at] = i, group[answered]
		answered++
	}
	return answered, nil
}

// searchForward answers a group's pairs with one traversal from the
// source per way of counting cost: a BFS for reachability and the
// unit-weight specs, and one Dijkstra run per weighted spec, each
// stopping once every destination is settled.
func (s *Solver) searchForward(sc *search, src VertexID, group []int, dsts []VertexID, specs []Spec, sol *Solution) error {
	distinct := sc.mark(group, dsts)
	defer sc.unmark(group, dsts)
	sc.forward += distinct

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
		if _, err := sc.runBFS(s.g, s.delta, src, sc.wanted, distinct, s.Ctx); err != nil {
			return err
		}
		for _, i := range group {
			d := dsts[i]
			if !sc.seen(d) {
				putHops(sol, specs, i, -1)
				continue
			}
			putHops(sol, specs, i, sc.dist[d])
			for k := range specs {
				if specs[k].Unit && specs[k].NeedPath {
					sol.Paths[k][i], _ = sc.pathTo(d)
				}
			}
		}
		reachedSet = true
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

// putHops answers pair i for a destination hops hops away (-1:
// unreachable): whether it is reached, and its cost under every
// unit-weight spec.
func putHops(sol *Solution, specs []Spec, i int, hops int64) {
	if sol.Reached[i] = hops >= 0; !sol.Reached[i] {
		return
	}
	for k := range specs {
		switch spec := &specs[k]; {
		case !spec.Unit:
		case spec.Float:
			sol.CostF[k][i] = float64(hops) * spec.UnitF
		default:
			sol.CostI[k][i] = hops * spec.UnitI
		}
	}
}
