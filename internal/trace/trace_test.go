package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTraceZeroAllocs pins the disabled path's contract: a nil
// *Trace must perform no allocations anywhere on the hot path, so the
// exec and solver seams can call it unconditionally.
func TestNilTraceZeroAllocs(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Begin(NoSpan, "op")
		tr.SetRows(sp, 42)
		tr.SetWorkers(sp, 4)
		tr.SetWindows(sp, 2, 64)
		tr.AddSolve(sp, nil, Searches{Both: 1})
		tr.End(sp)
		_ = tr.Duration(sp)
		_ = tr.CurrentStage()
		tr.SetPlanCacheHit(true)
		tr.SetResultCacheHit(true)
		_ = tr.Stages()
		_ = tr.Tree()
	})
	if allocs != 0 {
		t.Fatalf("nil trace allocated %.1f per op, want 0", allocs)
	}
}

func TestSpanTreeAndRowsIn(t *testing.T) {
	tr := New()
	exec := tr.Begin(NoSpan, "execute")
	proj := tr.Begin(exec, "Project")
	scan1 := tr.Begin(proj, "Scan a")
	tr.SetRows(scan1, 10)
	tr.End(scan1)
	scan2 := tr.Begin(proj, "Scan b")
	tr.SetRows(scan2, 5)
	tr.AddSolve(scan2, []Level{{Level: 0, Size: 1}, {Level: 1, Size: 7}}, Searches{})
	tr.AddSolve(scan2, []Level{{Level: 0, Size: 2, Backward: true}}, Searches{})
	tr.SetWorkers(scan2, 3)
	tr.End(scan2)
	tr.SetRows(proj, 8)
	tr.End(proj)
	tr.End(exec)

	root := tr.Tree()
	if root.Name != "query" || len(root.Children) != 1 {
		t.Fatalf("root: %+v", root)
	}
	ex := root.Children[0]
	if ex.Name != "execute" || ex.Rows != nil || len(ex.Children) != 1 {
		t.Fatalf("execute node: %+v", ex)
	}
	pr := ex.Children[0]
	if pr.Rows == nil || *pr.Rows != 8 {
		t.Fatalf("project rows: %+v", pr.Rows)
	}
	// rows_in = sum of operator children's outputs.
	if pr.RowsIn == nil || *pr.RowsIn != 15 {
		t.Fatalf("project rows_in: %+v", pr.RowsIn)
	}
	if len(pr.Children) != 2 {
		t.Fatalf("project children: %d", len(pr.Children))
	}
	sc := pr.Children[1]
	if sc.Workers != 3 || len(sc.Levels) != 3 || sc.Levels[1] != (Level{Level: 1, Size: 7}) ||
		sc.Levels[2] != (Level{Level: 0, Size: 2, Backward: true}) {
		t.Fatalf("scan b: %+v", sc)
	}

	text := Render(ex)
	for _, want := range []string{"Project (rows=8, rows_in=15", "level 0: frontier=1", "level 1: frontier=7", "level 0 (backward): frontier=2", "workers=3"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered tree missing %q:\n%s", want, text)
		}
	}
}

// TestLevelWireForm pins the JSON of a frontier sample: a forward level
// encodes exactly as it did before levels had a direction, and only a
// backward level carries the flag.
func TestLevelWireForm(t *testing.T) {
	for _, tc := range []struct {
		l    Level
		want string
	}{
		{Level{Level: 2, Size: 9}, `{"level":2,"size":9}`},
		{Level{Level: 1, Size: 4, Backward: true}, `{"level":1,"size":4,"backward":true}`},
	} {
		got, err := json.Marshal(tc.l)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Fatalf("%+v encodes as %s, want %s", tc.l, got, tc.want)
		}
	}
}

// TestWindowsWireForm: a scan that skipped windows carries them on the
// wire and in the rendered tree; any other span encodes as it did
// before scans had windows.
func TestWindowsWireForm(t *testing.T) {
	tr := New()
	pruned := tr.Begin(NoSpan, "Scan p AS p")
	tr.SetRows(pruned, 2048)
	tr.SetWindows(pruned, 2, 64)
	tr.End(pruned)
	whole := tr.Begin(NoSpan, "Scan q AS q")
	tr.SetRows(whole, 7)
	tr.End(whole)
	root := tr.Tree()
	got, err := json.Marshal(root.Children[0].Windows)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"scanned":2,"total":64}` {
		t.Fatalf("windows encode as %s", got)
	}
	if got, err = json.Marshal(root.Children[1]); err != nil || strings.Contains(string(got), "windows") {
		t.Fatalf("a scan that skipped nothing encodes windows: %s, %v", got, err)
	}
	text := Render(root)
	if !strings.Contains(text, "Scan p AS p (rows=2048, time=") || !strings.Contains(text, ", windows=2/64)") {
		t.Fatalf("rendered tree lacks windows=2/64:\n%s", text)
	}
	if strings.Count(text, "windows=") != 1 {
		t.Fatalf("windows= on a scan that skipped nothing:\n%s", text)
	}
}

func TestStagesAndCurrentStage(t *testing.T) {
	tr := New()
	a := tr.Begin(NoSpan, "admission")
	tr.End(a)
	e := tr.Begin(NoSpan, "execute")
	inner := tr.Begin(e, "Scan")
	if got := tr.CurrentStage(); got != "Scan" {
		t.Fatalf("CurrentStage = %q, want Scan", got)
	}
	tr.End(inner)
	if got := tr.CurrentStage(); got != "execute" {
		t.Fatalf("CurrentStage = %q, want execute", got)
	}
	tr.End(e)
	st := tr.Stages()
	if len(st) != 2 || st[0].Name != "admission" || st[1].Name != "execute" {
		t.Fatalf("Stages = %+v", st)
	}
	for _, s := range st {
		if s.Dur < 0 {
			t.Fatalf("negative stage duration: %+v", s)
		}
	}
}

// TestConcurrentLevelSamples: solves hand their samples over while
// other goroutines open and close spans of the same trace (two
// GraphMatch operators of one query may solve at once). Every sample
// and count lands, in order within each hand-off. Run under -race.
func TestConcurrentLevelSamples(t *testing.T) {
	tr := New()
	sp := tr.Begin(NoSpan, "GraphMatch")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			levels := make([]Level, 10)
			for i := range levels {
				levels[i] = Level{Level: int64(i), Size: w, Backward: i%2 == 1}
			}
			for i := 0; i < 10; i++ {
				tr.AddSolve(sp, levels, Searches{Both: 1, Forward: w})
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		s := tr.Begin(sp, "op")
		tr.End(s)
	}
	wg.Wait()
	tr.End(sp)
	root := tr.Tree()
	gm := root.Children[0]
	if len(gm.Levels) != 400 {
		t.Fatalf("got %d level samples, want 400", len(gm.Levels))
	}
	for i, l := range gm.Levels {
		if l.Level != int64(i%10) {
			t.Fatalf("sample %d is level %d: a hand-off was split", i, l.Level)
		}
	}
	if *gm.Searches != (Searches{Both: 40, Forward: 60}) {
		t.Fatalf("searches %+v, want both 40, forward 60", *gm.Searches)
	}
	if len(gm.Children) != 50 {
		t.Fatalf("got %d children, want 50", len(gm.Children))
	}
}

// TestSearchesWireForm: a solver span that searched carries its counts
// on the wire and in the rendered tree, before the worker budget; any
// other span encodes as it did before spans had searches.
func TestSearchesWireForm(t *testing.T) {
	tr := New()
	gm := tr.Begin(NoSpan, "GraphMatch")
	tr.SetWorkers(gm, 2)
	tr.AddSolve(gm, nil, Searches{Both: 127, Forward: 1})
	tr.End(gm)
	scan := tr.Begin(NoSpan, "Scan q AS q")
	tr.AddSolve(scan, nil, Searches{})
	tr.End(scan)
	root := tr.Tree()
	got, err := json.Marshal(root.Children[0].Searches)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"both":127,"forward":1}` {
		t.Fatalf("searches encode as %s", got)
	}
	if got, err = json.Marshal(root.Children[1]); err != nil || strings.Contains(string(got), "searches") {
		t.Fatalf("a span that searched nothing encodes searches: %s, %v", got, err)
	}
	if text := Render(root); !strings.Contains(text, ", searches=both:127,forward:1, workers=2)") {
		t.Fatalf("rendered tree lacks the searches:\n%s", text)
	}
}

// TestDurationOpenSpan: open spans report elapsed-so-far, closed spans
// a fixed duration.
func TestDurationOpenSpan(t *testing.T) {
	tr := New()
	sp := tr.Begin(NoSpan, "execute")
	time.Sleep(2 * time.Millisecond)
	if d := tr.Duration(sp); d < time.Millisecond {
		t.Fatalf("open span duration %v, want >= 1ms", d)
	}
	tr.End(sp)
	d1 := tr.Duration(sp)
	time.Sleep(2 * time.Millisecond)
	if d2 := tr.Duration(sp); d2 != d1 {
		t.Fatalf("closed span duration moved: %v -> %v", d1, d2)
	}
}
