package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"graphsql/internal/fault"
)

// setupTiny builds an engine with one small table so SELECTs exercise
// the exec operator tree (and its fault point).
func setupTiny(t *testing.T) *Engine {
	t.Helper()
	e := New()
	if _, err := e.ExecScript(context.Background(), `
		CREATE TABLE nums (n INT);
		INSERT INTO nums VALUES (1), (2), (3);
	`); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestQueryPanicBecomesError verifies the engine boundary: a panic
// raised inside an operator surfaces from Query as a *QueryPanicError
// carrying the panic value and a stack, never as a process-killing
// panic — and errors.As sees through to the injected cause.
func TestQueryPanicBecomesError(t *testing.T) {
	t.Cleanup(fault.Reset)
	e := setupTiny(t)
	if err := fault.Set(fault.Rule{Point: fault.PointExecOperator, Kind: fault.KindPanic}); err != nil {
		t.Fatal(err)
	}
	_, err := e.QueryCtx(context.Background(), `SELECT n FROM nums`)
	var qp *QueryPanicError
	if !errors.As(err, &qp) {
		t.Fatalf("Query error = %v (%T), want *QueryPanicError", err, err)
	}
	if _, ok := qp.Value.(*fault.InjectedPanic); !ok {
		t.Fatalf("panic value = %#v, want *fault.InjectedPanic", qp.Value)
	}
	var ip *fault.InjectedPanic
	if !errors.As(err, &ip) || ip.Point != fault.PointExecOperator {
		t.Fatalf("errors.As did not unwrap to the injected panic: %v", err)
	}
	if len(qp.Stack) == 0 || !strings.Contains(string(qp.Stack), "exec") {
		t.Fatalf("stack missing or does not reach exec:\n%s", qp.Stack)
	}

	// The engine must remain fully usable after containment.
	fault.Reset()
	res, err := e.QueryCtx(context.Background(), `SELECT count(*) FROM nums`)
	if err != nil {
		t.Fatalf("query after contained panic: %v", err)
	}
	if res.NumRows() != 1 {
		t.Fatalf("got %d rows, want 1", res.NumRows())
	}
}

// TestExecPreparedPanicBecomesError covers the prepared-statement entry
// point, which the server's hot path uses: a panic while the cursor
// opens is contained there, one raised mid-drain is the consumer's to
// capture (CapturePanic), and the statement stays usable after both.
func TestExecPreparedPanicBecomesError(t *testing.T) {
	t.Cleanup(fault.Reset)
	e := setupTiny(t)
	p, err := e.Prepare(`SELECT n FROM nums WHERE n > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Set(fault.Rule{Point: fault.PointExecOperator, Kind: fault.KindPanic}); err != nil {
		t.Fatal(err)
	}
	_, err = e.ExecPreparedCursor(context.Background(), p, nil)
	var qp *QueryPanicError
	if !errors.As(err, &qp) {
		t.Fatalf("ExecPreparedCursor error = %v (%T), want *QueryPanicError", err, err)
	}

	// exec.batch alone (Set replaces the schedule) fires at the first
	// Next — after the cursor was handed out.
	if err := fault.Set(fault.Rule{Point: fault.PointExecBatch, Kind: fault.KindPanic}); err != nil {
		t.Fatal(err)
	}
	cur, err := e.ExecPreparedCursor(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("open with only the batch point armed: %v", err)
	}
	err = func() (err error) {
		defer cur.Close()
		defer CapturePanic(&err)
		_, err = cur.Next(0)
		return err
	}()
	if qp = nil; !errors.As(err, &qp) {
		t.Fatalf("drain error = %v (%T), want *QueryPanicError", err, err)
	}

	fault.Reset()
	cur, err = e.ExecPreparedCursor(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("prepared statement dead after contained panic: %v", err)
	}
	if _, err := drain(cur); err != nil {
		t.Fatalf("prepared statement dead after contained panic: %v", err)
	}
}

// TestExecScriptPanicBecomesError covers the script path used by graph
// loads, plus an injected error (not panic) flowing through unchanged.
func TestExecScriptPanicBecomesError(t *testing.T) {
	t.Cleanup(fault.Reset)
	e := setupTiny(t)
	if err := fault.Set(fault.Rule{Point: fault.PointExecOperator, Kind: fault.KindPanic}); err != nil {
		t.Fatal(err)
	}
	_, err := e.ExecScript(context.Background(), `SELECT n FROM nums; SELECT n+1 FROM nums`)
	var qp *QueryPanicError
	if !errors.As(err, &qp) {
		t.Fatalf("ExecScript error = %v (%T), want *QueryPanicError", err, err)
	}

	if err := fault.Set(fault.Rule{Point: fault.PointExecOperator, Kind: fault.KindError}); err != nil {
		t.Fatal(err)
	}
	_, err = e.QueryCtx(context.Background(), `SELECT n FROM nums`)
	var inj *fault.InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("error-kind fault arrived as %v (%T), want *fault.InjectedError", err, err)
	}
	if errors.As(err, &qp) {
		t.Fatalf("plain injected error must not be wrapped as a panic: %v", err)
	}
}
