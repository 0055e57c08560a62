// Package fault is the engine's fault-injection framework: named
// injection points planted at the seams where production failures
// originate — graph-build chunk loops, the solver's per-group and
// per-level loops, relational operators, the result-cache insert and
// the NDJSON stream encoder — that stay completely inert until a test
// (or the GSQLD_FAULTS environment variable) installs a schedule.
//
// A schedule is a set of rules. Each rule names a point, a kind and
// optional triggers:
//
//	point:kind[:p=<prob>][:after=<hits>][:ms=<latency>][:seed=<n>]
//
// separated by ';' (or ','). Kinds:
//
//	error    Inject returns an *InjectedError the caller propagates
//	         through its normal error path
//	panic    Inject panics with an *InjectedPanic, exercising the
//	         panic-containment layers (par pool capture, engine
//	         recovery, HTTP middleware)
//	latency  Inject sleeps for the rule's ms duration, then falls
//	         through (never fails the call)
//
// Triggers compose: `after=N` skips the first N hits of the point,
// `p=0.05` then fires each remaining hit with probability 0.05 from a
// deterministic per-rule generator (`seed=n` reseeds it), so a chaos
// run is reproducible. Example:
//
//	GSQLD_FAULTS='solver.group:panic:p=0.02;wire.stream.encode:error:p=0.1' gsqld ...
//
// The disabled fast path — no schedule installed — is a single atomic
// pointer load, so permanently planted points cost nothing in
// production binaries.
//
// Injection is process-global (the planted code has no request
// context), installed either programmatically (Set/SetSpec, tests must
// defer Reset) or by GSQLD_FAULTS at process start. A malformed
// GSQLD_FAULTS panics at init: a chaos run that silently ran without
// its schedule would assert nothing.
package fault

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Injection point names. Constants so the planted sites and the
// schedules that target them cannot drift apart.
const (
	// PointGraphBuildChunk fires in the CSR builder's chunk loops
	// (degree count and scatter), on the build workers.
	PointGraphBuildChunk = "graph.build.chunk"
	// PointGraphEncodeChunk fires once every few thousand keys of the
	// sequential dictionary-encode pass, on the encoding goroutine.
	PointGraphEncodeChunk = "graph.encode.chunk"
	// PointSolverGroup fires at the start of every source-group
	// traversal, on the solver pool workers.
	PointSolverGroup = "solver.group"
	// PointSolverLevel fires at every level boundary of a BFS
	// traversal, on the traversing goroutine.
	PointSolverLevel = "solver.level"
	// PointExecOperator fires before every relational operator.
	PointExecOperator = "exec.operator"
	// PointExecBatch fires before every batch a pull-executor operator
	// produces (Operator.Next).
	PointExecBatch = "exec.batch"
	// PointCacheInsert fires on result-cache admission; an error makes
	// the insert silently fail (the result is served but not cached).
	PointCacheInsert = "server.cache.insert"
	// PointStreamEncode fires per row-batch frame of the NDJSON stream
	// encoder, after the header frame is on the wire.
	PointStreamEncode = "wire.stream.encode"
)

// Kind classifies what a rule does when it fires.
type Kind uint8

const (
	// KindError makes Inject return an *InjectedError.
	KindError Kind = iota
	// KindPanic makes Inject panic with an *InjectedPanic.
	KindPanic
	// KindLatency makes Inject sleep for the rule's Latency.
	KindLatency
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindLatency:
		return "latency"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Rule is one line of a fault schedule.
type Rule struct {
	// Point names the injection point the rule arms.
	Point string
	// Kind selects the failure mode.
	Kind Kind
	// Prob is the per-hit firing probability in (0, 1]; 0 means 1
	// (always fire).
	Prob float64
	// After skips the first After hits of the point, so a fault can be
	// placed past warm-up (e.g. mid-way through a corpus run).
	After int64
	// Latency is the sleep duration of a KindLatency rule.
	Latency time.Duration
	// Seed reseeds the rule's deterministic probability generator;
	// 0 derives a seed from the point name, so two runs of the same
	// schedule fire at the same hit ordinals.
	Seed uint64
}

// InjectedError is the error a fired KindError rule returns; callers
// propagate it through their ordinary error path, and harnesses
// recognize injected failures with errors.As.
type InjectedError struct {
	// Point names the injection point that fired.
	Point string
}

func (e *InjectedError) Error() string { return "fault: injected error at " + e.Point }

// InjectedPanic is the value a fired KindPanic rule panics with.
type InjectedPanic struct {
	// Point names the injection point that fired.
	Point string
}

func (p *InjectedPanic) String() string { return "fault: injected panic at " + p.Point }

// Error lets recover sites format the value uniformly with real error
// values.
func (p *InjectedPanic) Error() string { return p.String() }

// armedRule is an installed rule plus its hit counter and generator
// state.
type armedRule struct {
	Rule
	hits atomic.Int64
	rng  atomic.Uint64
}

// roll advances the rule's splitmix64 generator and reports whether
// the rule fires this hit. The sequence depends only on the seed, so a
// fixed schedule fires at the same ordinals across runs (per rule;
// which goroutine observes a given ordinal still depends on
// scheduling).
func (r *armedRule) roll() bool {
	x := r.rng.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < r.Prob
}

type schedule struct {
	points map[string][]*armedRule
}

// active holds the installed schedule; nil means injection is
// disabled and Inject is a single atomic load.
var active atomic.Pointer[schedule]

// Enabled reports whether any fault schedule is installed.
func Enabled() bool { return active.Load() != nil }

// Set installs a schedule, replacing any previous one. Tests must
// pair it with a deferred Reset: the schedule is process-global.
func Set(rules ...Rule) error {
	s := &schedule{points: make(map[string][]*armedRule)}
	for _, r := range rules {
		if r.Point == "" {
			return fmt.Errorf("fault: rule with empty point")
		}
		if r.Prob < 0 || r.Prob > 1 {
			return fmt.Errorf("fault: %s: probability %v outside [0,1]", r.Point, r.Prob)
		}
		if r.Prob == 0 {
			r.Prob = 1
		}
		if r.Kind == KindLatency && r.Latency <= 0 {
			return fmt.Errorf("fault: %s: latency rule needs ms=<duration>", r.Point)
		}
		ar := &armedRule{Rule: r}
		seed := r.Seed
		if seed == 0 {
			seed = 0x9E3779B97F4A7C15
			for _, c := range r.Point {
				seed = seed*1099511628211 ^ uint64(c)
			}
		}
		ar.rng.Store(seed)
		s.points[r.Point] = append(s.points[r.Point], ar)
	}
	active.Store(s)
	return nil
}

// SetSpec parses a schedule in the GSQLD_FAULTS grammar (see the
// package comment) and installs it.
func SetSpec(spec string) error {
	rules, err := Parse(spec)
	if err != nil {
		return err
	}
	return Set(rules...)
}

// Reset removes the installed schedule; Inject becomes inert again.
func Reset() { active.Store(nil) }

// Parse parses the GSQLD_FAULTS grammar into rules without installing
// them. Every rule must name a registered injection point (see
// Registry): a typo'd point would otherwise arm an inert schedule that
// never fires, which in a chaos run reads as "survived injection" when
// nothing was injected at all. Programmatic rules built with Set are
// not subject to the registry, so tests can exercise synthetic points.
func Parse(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("fault: rule %q: want point:kind[:opt...]", part)
		}
		r := Rule{Point: strings.TrimSpace(fields[0])}
		if !Known(r.Point) {
			return nil, unknownPointError(part, r.Point)
		}
		switch strings.TrimSpace(fields[1]) {
		case "error":
			r.Kind = KindError
		case "panic":
			r.Kind = KindPanic
		case "latency":
			r.Kind = KindLatency
		default:
			return nil, fmt.Errorf("fault: rule %q: unknown kind %q (error|panic|latency)", part, fields[1])
		}
		for _, opt := range fields[2:] {
			key, val, ok := strings.Cut(strings.TrimSpace(opt), "=")
			if !ok {
				return nil, fmt.Errorf("fault: rule %q: option %q is not key=value", part, opt)
			}
			switch key {
			case "p":
				p, err := strconv.ParseFloat(val, 64)
				if err != nil || p < 0 || p > 1 {
					return nil, fmt.Errorf("fault: rule %q: p=%q is not a probability", part, val)
				}
				r.Prob = p
			case "after":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("fault: rule %q: after=%q is not a hit count", part, val)
				}
				r.After = n
			case "ms":
				ms, err := strconv.ParseInt(val, 10, 64)
				if err != nil || ms < 0 {
					return nil, fmt.Errorf("fault: rule %q: ms=%q is not a duration", part, val)
				}
				r.Latency = time.Duration(ms) * time.Millisecond
			case "seed":
				s, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("fault: rule %q: seed=%q is not an integer", part, val)
				}
				r.Seed = s
			default:
				return nil, fmt.Errorf("fault: rule %q: unknown option %q", part, key)
			}
		}
		if r.Kind == KindLatency && r.Latency <= 0 {
			return nil, fmt.Errorf("fault: rule %q: latency rule needs ms=<duration>", part)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fault: empty schedule %q", spec)
	}
	return rules, nil
}

// Inject checks the named point against the installed schedule. With
// no schedule it returns nil after one atomic load. A fired error rule
// returns an *InjectedError; a fired panic rule panics with an
// *InjectedPanic; a fired latency rule sleeps and keeps evaluating
// later rules of the same point.
func Inject(point string) error {
	s := active.Load()
	if s == nil {
		return nil
	}
	rules := s.points[point]
	if len(rules) == 0 {
		return nil
	}
	for _, r := range rules {
		if r.hits.Add(1) <= r.After {
			continue
		}
		if r.Prob < 1 && !r.roll() {
			continue
		}
		switch r.Kind {
		case KindLatency:
			time.Sleep(r.Latency)
		case KindError:
			return &InjectedError{Point: point}
		case KindPanic:
			panic(&InjectedPanic{Point: point})
		}
	}
	return nil
}

// init arms the schedule named by GSQLD_FAULTS, if any, so a server
// binary can run chaos soaks without a code change. A malformed spec
// panics: failing fast beats a chaos run that silently asserted
// nothing.
func init() {
	if spec := os.Getenv("GSQLD_FAULTS"); spec != "" {
		if err := SetSpec(spec); err != nil {
			panic(fmt.Sprintf("GSQLD_FAULTS: %v", err))
		}
	}
}
