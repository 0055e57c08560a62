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
// Tracing: -analyze wraps every SELECT in EXPLAIN ANALYZE, so each
// query executes and prints its annotated plan tree (actual rows,
// timings, workers, BFS frontier sizes) instead of its rows. -trace
// records a span trace per statement: the human-readable mode prints
// the rendered tree to stderr after the rows, -json attaches it as the
// wire response's "trace" field, and -stream carries it in the trailer
// frame — exactly like a gsqld request with "trace": true.
//
// Output modes: -json emits each statement's result as one buffered
// wire object (the gsqld /query response encoding); -stream emits the
// chunked NDJSON frame sequence (the gsqld streaming encoding), with
// rows converted and written batch by batch through the engine's
// row-batch cursor, so huge results never exist row-major in memory.
//
// Queries run with the engine's full worker budget: batched REACHES
// queries parallelize across source groups, and single-source queries
// over large graphs parallelize within the traversal (frontier-
// parallel BFS) — results are bit-identical either way. Ctrl-C exits
// the shell; for cancelable queries use the HTTP daemon (cmd/gsqld),
// which aborts a running traversal when the client disconnects.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"graphsql"
	"graphsql/internal/sql/lexer"
	"graphsql/internal/wire"
)

func main() {
	file := flag.String("f", "", "run a SQL script instead of the REPL")
	jsonOut := flag.Bool("json", false, "emit results as wire JSON (the gsqld response encoding), one object per statement")
	streamOut := flag.Bool("stream", false, "emit results as chunked NDJSON frames (the gsqld streaming encoding), one stream per statement; rows are converted batch by batch instead of materializing the whole result row-major")
	analyze := flag.Bool("analyze", false, "wrap every SELECT in EXPLAIN ANALYZE: execute it and print the annotated plan tree (actual rows, timings, frontier sizes) instead of its rows")
	traced := flag.Bool("trace", false, "record a span trace per statement; prints the rendered tree to stderr (human mode), or attaches it to the wire output (-json response field, -stream trailer frame)")
	flag.Parse()

	db := graphsql.Open()
	sess := db.Session()
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		script := string(data)
		if *analyze {
			script = analyzeScript(script)
		}
		if *streamOut {
			// The lexer-driven splitter sees quoting and comments exactly
			// as the parser will, so script statements stream one at a
			// time without a second scanner to drift out of sync.
			for _, stmt := range lexer.SplitStatements(script) {
				if !streamStatement(sess, stmt, *traced) {
					os.Exit(1)
				}
			}
			return
		}
		if *traced {
			// Per-statement execution: each statement gets its own trace.
			for _, stmt := range lexer.SplitStatements(script) {
				if !tracedStatement(sess, stmt, *jsonOut) {
					os.Exit(1)
				}
			}
			return
		}
		res, err := db.ExecScript(context.Background(), script)
		if *jsonOut {
			if !printWire(res, err) {
				os.Exit(1)
			}
			return
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if res != nil && len(res.Columns) > 0 {
			fmt.Print(res)
		}
		return
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("gsql> ")
		} else {
			fmt.Print("  ... ")
		}
	}
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if runMeta(db, trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			sql := buf.String()
			buf.Reset()
			if *analyze {
				sql = analyzeScript(sql)
			}
			if *streamOut {
				// The buffer may hold several ';'-separated statements;
				// stream each one, exactly like the -f script path.
				for _, stmt := range lexer.SplitStatements(sql) {
					streamStatement(sess, stmt, *traced)
				}
				prompt()
				continue
			}
			if *traced {
				for _, stmt := range lexer.SplitStatements(sql) {
					tracedStatement(sess, stmt, *jsonOut)
				}
				prompt()
				continue
			}
			res, err := db.ExecScript(context.Background(), sql)
			switch {
			case *jsonOut:
				printWire(res, err)
			case err != nil:
				fmt.Println("error:", err)
			case res != nil && len(res.Columns) > 0:
				fmt.Print(res)
				fmt.Printf("(%d row(s))\n", res.Len())
			default:
				fmt.Println("ok")
			}
		}
		prompt()
	}
}

// analyzeScript rewrites each SELECT (or WITH ... SELECT) statement of
// a script into EXPLAIN ANALYZE form; other statements pass through so
// schema setup and inserts in the same script keep working.
func analyzeScript(sql string) string {
	stmts := lexer.SplitStatements(sql)
	for i, stmt := range stmts {
		fields := strings.Fields(stmt)
		if len(fields) == 0 {
			continue
		}
		switch strings.ToUpper(fields[0]) {
		case "SELECT", "WITH":
			stmts[i] = "EXPLAIN ANALYZE " + stmt
		}
	}
	return strings.Join(stmts, ";\n") + ";"
}

// tracedStatement runs one statement with a span trace. -json attaches
// the tree to the wire response (the gsqld "trace": true shape); the
// human mode prints the rows to stdout and the rendered tree to
// stderr, keeping piped output clean.
func tracedStatement(sess *graphsql.Session, sql string, jsonOut bool) bool {
	tr := graphsql.NewTrace()
	res, err := sess.QueryOpts(context.Background(), graphsql.QueryOptions{Trace: tr}, sql)
	if jsonOut {
		var payload *wire.QueryResponse
		if err != nil {
			payload = wire.FromError(wire.CodeSQL, err)
		} else {
			if res == nil {
				res = &graphsql.Result{}
			}
			payload = wire.FromResult(res)
		}
		payload.Trace = tr.Tree()
		data, encErr := payload.Encode()
		if encErr != nil {
			fmt.Fprintln(os.Stderr, encErr)
			return false
		}
		fmt.Println(string(data))
		return err == nil
	}
	if err != nil {
		fmt.Println("error:", err)
		return false
	}
	if res != nil && len(res.Columns) > 0 {
		fmt.Print(res)
		fmt.Printf("(%d row(s))\n", res.Len())
	} else {
		fmt.Println("ok")
	}
	fmt.Fprint(os.Stderr, graphsql.RenderTrace(tr.Tree()))
	return true
}

// streamStatement runs one statement through the row-batch cursor and
// emits it in the chunked wire encoding (identical to a gsqld
// streaming /query response body); it reports success. Errors before
// the header use the buffered error object, exactly like gsqld. When
// traced, the span tree rides in the trailer frame.
func streamStatement(sess *graphsql.Session, sql string, traced bool) bool {
	var tr *graphsql.Trace
	if traced {
		tr = graphsql.NewTrace()
	}
	rows, err := sess.QueryRows(context.Background(), graphsql.QueryOptions{Trace: tr}, sql)
	if err != nil {
		data, encErr := wire.FromError(wire.CodeSQL, err).Encode()
		if encErr != nil {
			fmt.Fprintln(os.Stderr, encErr)
			return false
		}
		fmt.Println(string(data))
		return false
	}
	sw := wire.NewStreamWriter(os.Stdout)
	if err := sw.Header(rows.Columns); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return false
	}
	for {
		b, err := rows.NextBatch(wire.DefaultBatchRows)
		if err != nil {
			sw.Fail(wire.CodeCanceled, err)
			return false
		}
		if b == nil {
			break
		}
		if err := sw.Batch(b); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return false
		}
	}
	if err := sw.Trailer(tr.Tree()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return false
	}
	return true
}

// printWire renders one statement outcome in the shared wire encoding
// (identical to a gsqld /query response body); it reports success.
func printWire(res *graphsql.Result, err error) bool {
	var payload *wire.QueryResponse
	if err != nil {
		payload = wire.FromError(wire.CodeSQL, err)
	} else {
		if res == nil {
			res = &graphsql.Result{}
		}
		payload = wire.FromResult(res)
	}
	data, encErr := payload.Encode()
	if encErr != nil {
		fmt.Fprintln(os.Stderr, encErr)
		return false
	}
	fmt.Println(string(data))
	return err == nil
}

// runMeta executes a backslash command; it returns true on quit.
func runMeta(db *graphsql.DB, cmd string) bool {
	switch {
	case cmd == `\q`:
		return true
	case cmd == `\d`:
		for _, name := range db.Engine().Catalog().TableNames() {
			t, _ := db.Engine().Catalog().Table(name)
			fmt.Printf("%s (%d rows): %s\n", t.Name, t.NumRows(), t.Schema)
		}
	case strings.HasPrefix(cmd, `\explain `):
		p, err := db.Explain(strings.TrimSuffix(strings.TrimPrefix(cmd, `\explain `), ";"))
		if err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Print(p)
		}
	default:
		fmt.Println(`meta commands: \d (tables), \explain <select>, \q (quit)`)
	}
	return false
}
