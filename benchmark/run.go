package main

// One workload against one live gsqld: set-up (load + warm-up), timed
// closed-loop passes split into rounds, and the cache-regime check.

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

const (
	// rounds is how many equal time slices a pass is cut into; rates and
	// CPU are reported as the median slice, which one noisy stretch on a
	// shared host cannot move.
	rounds = 5
	// warmupRequests run after every load, before anything is timed:
	// they open the connection, create the session, fill the plan cache
	// and let the solver allocate its scratch.
	warmupRequests = 8
	// setupRepeats is how often a run loads its graph; setup_s is the
	// median.
	setupRepeats = 3
	// maxFailureNotes bounds the failure messages kept for the report.
	maxFailureNotes = 5
)

// sample is one completed operation.
type sample struct {
	begin   time.Duration // request sent, as an offset from the pass start
	end     time.Duration // answer checked
	latency time.Duration
	ttfr    time.Duration
	op      opKind
	tree    *spanNode // traced passes only
}

// hit reports whether a traced request was served by the result cache:
// such a tree has no execute stage.
func (s *sample) hit() bool { return s.tree != nil && s.tree.child("execute") == nil }

// mark is one round boundary: when it was taken and the server's CPU
// time at that instant.
type mark struct {
	at  time.Duration
	cpu time.Duration
}

// snapshot is the outside view of the server at one instant.
type snapshot struct {
	stats  *serverStats
	mem    *memStats
	srvCPU time.Duration
	ownCPU time.Duration
}

// pass is the outcome of one timed window.
type pass struct {
	start     time.Time
	samples   []sample // ordered by completion
	marks     []mark   // rounds+1 boundaries
	attempted int
	failed    int
	notes     []string
	bytes     int64
	rows      int64
	before    snapshot
	after     snapshot
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.notes) < maxFailureNotes {
		p.notes = append(p.notes, fmt.Sprintf(format, args...))
	}
}

// runner drives one workload; the server it talks to changes with
// every setup.
type runner struct {
	e       *env
	w       *workload
	bin     string // the gsqld binary
	body    []byte // POST /graphs/{name}/load payload
	gens    []*generator
	srv     *gsqld
	clients []*client
}

func newRunner(e *env, w *workload, bin string) (*runner, error) {
	body, err := loadBody(loadScript(e.ds, w, e.pairSrc, e.pairDst), w.indexed)
	if err != nil {
		return nil, err
	}
	r := &runner{e: e, w: w, bin: bin, body: body}
	for c := 0; c < w.clients; c++ {
		r.gens = append(r.gens, newGenerator(e, w, c))
	}
	return r, nil
}

// close stops the current server, if any, and waits for it to exit.
func (r *runner) close() {
	for _, c := range r.clients {
		c.close()
	}
	r.clients = nil
	if r.srv != nil {
		r.srv.stop()
		r.srv = nil
	}
}

// setup is what a user pays before the first query: it starts a fresh
// gsqld (replacing the previous one), loads the workload's graph and
// warms it up. It returns the wall time of the load alone and of load
// plus warm-up; starting the process is reported separately.
func (r *runner) setup() (load, total time.Duration, err error) {
	r.close()
	if r.srv, err = startGsqld(r.bin); err != nil {
		return 0, 0, err
	}
	for range r.gens {
		r.clients = append(r.clients, newClient(r.srv.base))
	}
	start := time.Now()
	if load, err = loadGraph(r.srv.base, r.w.graph, r.body); err != nil {
		return 0, 0, fmt.Errorf("%w\n%s", err, r.srv.stderr.String())
	}
	p := pass{start: start}
	for c, cl := range r.clients {
		for i := 0; i < warmupRequests; i++ {
			r.once(cl, r.gens[c], &p)
		}
	}
	if p.failed > 0 {
		return 0, 0, fmt.Errorf("warm-up: %s", p.notes[0])
	}
	return load, time.Since(start), nil
}

// once sends one request, checks the answer and records the sample.
func (r *runner) once(cl *client, g *generator, p *pass) {
	rq := g.take()
	p.attempted++
	begin := time.Since(p.start)
	resp, err := cl.do(rq.body)
	switch {
	case err != nil:
		p.fail("%s: transport: %v", r.w.name, err)
		return
	case resp.status != 200 || resp.err != nil:
		p.fail("%s: status %d, error %+v", r.w.name, resp.status, resp.err)
		return
	}
	if err := r.w.check(r.e, rq, resp); err != nil {
		p.fail("%s: wrong answer: %v", r.w.name, err)
		return
	}
	if g.traced && resp.trace == nil {
		p.fail("%s: traced request returned no span tree", r.w.name)
		return
	}
	p.bytes += int64(resp.bytes)
	p.rows += int64(resp.rowCount)
	p.samples = append(p.samples, sample{
		begin: begin, end: time.Since(p.start), latency: resp.latency, ttfr: resp.ttfr,
		op: rq.op, tree: resp.trace,
	})
}

func (r *runner) snapshot() (snapshot, error) {
	var s snapshot
	var err error
	if s.stats, err = r.srv.stats(); err != nil {
		return s, err
	}
	if s.mem, err = r.srv.memStats(); err != nil {
		return s, err
	}
	if s.srvCPU, err = cpuTime(r.srv.pid); err != nil {
		return s, err
	}
	s.ownCPU, err = cpuTime(os.Getpid())
	return s, err
}

// measure runs the closed loop for dur: every client sends its next
// request as soon as the previous answer is checked. traced selects
// "trace": true bodies.
func (r *runner) measure(dur time.Duration, traced bool) (*pass, error) {
	for _, g := range r.gens {
		g.setTraced(traced)
	}
	p := &pass{}
	var err error
	if p.before, err = r.snapshot(); err != nil {
		return nil, err
	}
	start := time.Now()
	p.start = start
	deadline := start.Add(dur)

	// Round boundaries are taken by a sampler of their own so that one
	// and two clients are measured the same way.
	marks := make([]mark, 0, rounds+1)
	var markErr error
	takeMark := func() {
		cpu, err := cpuTime(r.srv.pid)
		if err != nil {
			markErr = err
		}
		marks = append(marks, mark{at: time.Since(start), cpu: cpu})
	}
	takeMark()
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for i := 1; i < rounds; i++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(i) / rounds)))
			takeMark()
		}
	}()

	parts := make([]pass, len(r.clients))
	var wg sync.WaitGroup
	for c := range r.clients {
		parts[c].start = start
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r.once(r.clients[c], r.gens[c], &parts[c])
			}
		}(c)
	}
	wg.Wait()
	<-samplerDone
	takeMark()
	if markErr != nil {
		return nil, markErr
	}
	p.marks = marks
	if p.after, err = r.snapshot(); err != nil {
		return nil, err
	}
	for c := range parts {
		p.attempted += parts[c].attempted
		p.failed += parts[c].failed
		p.notes = append(p.notes, parts[c].notes...)
		p.bytes += parts[c].bytes
		p.rows += parts[c].rows
		p.samples = append(p.samples, parts[c].samples...)
	}
	if len(p.notes) > maxFailureNotes {
		p.notes = p.notes[:maxFailureNotes]
	}
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].end < p.samples[j].end })
	if len(p.samples) == 0 {
		return p, errors.New("no operation completed in the timed window")
	}
	r.checkRegime(p)
	return p, nil
}

// checkRegime compares the /stats deltas of a pass with the cache
// regime the workload declares. A violated regime means the pass
// measured something else than it claims, so it counts as a failure.
func (r *runner) checkRegime(p *pass) {
	w, b, a := r.w, p.before.stats, p.after.stats
	hits, misses := a.Cache.Hits-b.Cache.Hits, a.Cache.Misses-b.Cache.Misses
	ph0, pm0 := b.planCache(w.graph)
	ph1, pm1 := a.planCache(w.graph)
	switch cold := w.hitRatio == 0; {
	case cold && hits != 0:
		p.fail("%s: regime violated: %d result-cache hits on a cold workload", w.name, hits)
	case cold && w.session && pm1 != pm0:
		p.fail("%s: regime violated: %d plan-cache misses in a named session", w.name, pm1-pm0)
	case cold && !w.session && ph1 != ph0:
		p.fail("%s: regime violated: %d plan-cache hits on sessionless requests", w.name, ph1-ph0)
	case !cold && float64(hits) < w.hitRatio*float64(hits+misses):
		p.fail("%s: regime violated: result-cache hit ratio %d/%d below %.2f", w.name, hits, hits+misses, w.hitRatio)
	}
	if d := a.Errors - b.Errors; d != 0 {
		p.fail("%s: server counted %d errors", w.name, d)
	}
	if d := a.Admission.Rejected - b.Admission.Rejected; d != 0 {
		p.fail("%s: admission rejected %d requests", w.name, d)
	}
}

// roundValues returns, per round, the completed operations per second
// and the server CPU milliseconds per operation.
func (p *pass) roundValues() (qps, cpuMS []float64) {
	i := 0
	for r := 0; r+1 < len(p.marks); r++ {
		lo, hi := p.marks[r], p.marks[r+1]
		n := 0
		last := r+2 == len(p.marks)
		for i < len(p.samples) && (last || p.samples[i].end < hi.at) {
			i++
			n++
		}
		if n == 0 || hi.at <= lo.at {
			continue
		}
		qps = append(qps, float64(n)/(hi.at-lo.at).Seconds())
		cpuMS = append(cpuMS, float64(hi.cpu-lo.cpu)/float64(time.Millisecond)/float64(n))
	}
	return qps, cpuMS
}

func (p *pass) latencies(keep func(*sample) bool, ttfr bool) []time.Duration {
	out := make([]time.Duration, 0, len(p.samples))
	for i := range p.samples {
		s := &p.samples[i]
		if keep != nil && !keep(s) {
			continue
		}
		if ttfr {
			out = append(out, s.ttfr)
		} else {
			out = append(out, s.latency)
		}
	}
	return out
}
