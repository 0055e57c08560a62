// Command gsql is an interactive shell (and script runner) for the
// graphsql engine. Statements end with ';'. Example session:
//
//	$ go run ./cmd/gsql
//	gsql> CREATE TABLE e (s BIGINT, d BIGINT);
//	gsql> INSERT INTO e VALUES (1,2), (2,3);
//	gsql> SELECT CHEAPEST SUM(1) WHERE 1 REACHES 3 OVER e EDGE (s, d);
//
// Meta commands: \d lists tables, \explain SELECT ... prints the plan,
// \q quits.
//
// A script (-f) and every REPL input run through one statement loop:
// each statement is parsed, run on the shell's session and printed
// before the next one is read, so every output mode prints one result
// per statement, in order. A failing statement stops a -f script with
// exit status 1 after the results before it; the REPL reports the
// failure, drops the rest of that input and carries on. SET
// parallelism applies to the shell's session.
//
// Output modes: by default each result prints as a table followed by
// "(n row(s))", or as "ok" for a statement without rows, and errors go
// to stderr. -json emits one buffered wire object per statement (the
// gsqld /query response encoding); -stream emits one chunked NDJSON
// frame sequence per statement (the gsqld streaming encoding), written
// batch by batch from the engine's row-batch cursor. Both write through
// wire.Write, so a failure prints gsqld's error object or trailer.
//
// Tracing: -analyze prefixes every SELECT with EXPLAIN ANALYZE, so each
// query executes and prints its annotated plan tree (actual rows,
// timings, workers, BFS frontier sizes) instead of its rows. -trace
// records a span trace per statement: the default mode prints the
// rendered tree to stderr after the result, -json attaches it as the
// wire object's "trace" field, and -stream carries it in the trailer
// frame — exactly like a gsqld request with "trace": true.
//
// Queries run with the engine's full worker budget: batched REACHES
// queries parallelize across source groups, while one source group is
// one search — results are bit-identical either way. Ctrl-C exits the
// shell; for cancelable queries use the HTTP daemon (cmd/gsqld), which
// aborts a running traversal when the client disconnects.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"graphsql"
	"graphsql/internal/sql/ast"
	"graphsql/internal/sql/parser"
	"graphsql/internal/wire"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// shell is what the statement loop runs with: the session, the output
// mode and the two destinations.
type shell struct {
	db                                  *graphsql.DB
	sess                                *graphsql.Session
	jsonOut, streamOut, analyze, traced bool
	out, errOut                         io.Writer
}

// run parses the flags, then runs the -f script or the REPL over
// stdin; it returns the exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gsql", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("f", "", "run a SQL script instead of the REPL")
	jsonOut := fs.Bool("json", false, "emit results as wire JSON (the gsqld response encoding), one object per statement")
	streamOut := fs.Bool("stream", false, "emit results as chunked NDJSON frames (the gsqld streaming encoding), one stream per statement; rows are converted batch by batch instead of materializing the whole result row-major")
	analyze := fs.Bool("analyze", false, "wrap every SELECT in EXPLAIN ANALYZE: execute it and print the annotated plan tree (actual rows, timings, frontier sizes) instead of its rows")
	traced := fs.Bool("trace", false, "record a span trace per statement; prints the rendered tree to stderr (human mode), or attaches it to the wire output (-json response field, -stream trailer frame)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	db := graphsql.Open()
	sh := &shell{
		db: db, sess: db.Session(),
		jsonOut: *jsonOut, streamOut: *streamOut, analyze: *analyze, traced: *traced,
		out: stdout, errOut: stderr,
	}
	if *file == "" {
		sh.repl(stdin)
		return 0
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !sh.script(string(data)) {
		return 1
	}
	return 0
}

// repl reads input lines, runs each ';'-terminated input through the
// statement loop and handles backslash meta commands.
func (sh *shell) repl(stdin io.Reader) {
	in := bufio.NewScanner(stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Fprint(sh.out, "gsql> ")
		} else {
			fmt.Fprint(sh.out, "  ... ")
		}
	}
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if sh.meta(trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			sh.script(buf.String())
			buf.Reset()
		}
		prompt()
	}
}

// script is the statement loop: it parses one statement of src, runs
// it, prints its outcome and drops it before reading the next one. It
// stops at the first statement that fails to parse or run and reports
// whether every statement succeeded.
func (sh *shell) script(src string) bool {
	stmts := parser.NewScript(src)
	for {
		stmt, err := stmts.Next()
		if err != nil {
			return sh.print(nil, err, nil)
		}
		if stmt == nil {
			return true
		}
		sql := stmts.Text()
		if _, ok := stmt.(*ast.SelectStmt); ok && sh.analyze {
			sql = "EXPLAIN ANALYZE " + sql
		}
		var tr *graphsql.Trace
		if sh.traced {
			tr = graphsql.NewTrace()
		}
		rows, err := sh.sess.QueryRows(context.Background(), graphsql.QueryOptions{Trace: tr}, sql)
		if !sh.print(rows, err, tr) {
			return false
		}
	}
}

// print renders one statement's outcome — rows, or err when the
// statement failed — in the output mode and reports success. The wire
// modes write what gsqld would answer, codes included.
func (sh *shell) print(rows *graphsql.Rows, err error, tr *graphsql.Trace) bool {
	if sh.jsonOut || sh.streamOut {
		return wire.Write(sh.out, rows, err, sh.streamOut, tr) == nil
	}
	var res *graphsql.Result
	if err == nil {
		res, err = rows.Result()
	}
	if err != nil {
		fmt.Fprintln(sh.errOut, "error:", err)
		return false
	}
	if len(res.Columns) > 0 {
		fmt.Fprint(sh.out, res)
		fmt.Fprintf(sh.out, "(%d row(s))\n", res.Len())
	} else {
		fmt.Fprintln(sh.out, "ok")
	}
	if tr != nil {
		fmt.Fprint(sh.errOut, graphsql.RenderTrace(tr.Tree()))
	}
	return true
}

// meta executes a backslash command; it returns true on quit.
func (sh *shell) meta(cmd string) bool {
	switch {
	case cmd == `\q`:
		return true
	case cmd == `\d`:
		cat := sh.db.Engine().Catalog()
		for _, name := range cat.TableNames() {
			t, _ := cat.Table(name)
			fmt.Fprintf(sh.out, "%s (%d rows): %s\n", t.Name, t.NumRows(), t.Schema)
		}
	case strings.HasPrefix(cmd, `\explain `):
		p, err := sh.db.Explain(strings.TrimSuffix(strings.TrimPrefix(cmd, `\explain `), ";"))
		if err != nil {
			fmt.Fprintln(sh.errOut, "error:", err)
		} else {
			fmt.Fprint(sh.out, p)
		}
	default:
		fmt.Fprintln(sh.out, `meta commands: \d (tables), \explain <select>, \q (quit)`)
	}
	return false
}
