package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// script has four statements: two without rows, then two SELECTs of
// two rows and one row.
const script = `CREATE TABLE e (s BIGINT, d BIGINT);
INSERT INTO e VALUES (1, 2), (2, 3);
SELECT s, d FROM e ORDER BY s;
SELECT CHEAPEST SUM(1) AS c WHERE 1 REACHES 3 OVER e EDGE (s, d);
`

// replInput is script as typed into the REPL, two statements on the
// first line.
const replInput = `CREATE TABLE e (s BIGINT, d BIGINT); INSERT INTO e VALUES (1, 2), (2, 3);
SELECT s, d FROM e ORDER BY s;
SELECT CHEAPEST SUM(1) AS c
  WHERE 1 REACHES 3 OVER e EDGE (s, d);
`

// gsql runs the command with args (-f names a file holding fileSrc
// when fileSrc is not empty) and stdin, and returns its exit status
// and output. REPL prompts are dropped from stdout.
func gsql(t *testing.T, fileSrc, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	if fileSrc != "" {
		path := filepath.Join(t.TempDir(), "script.sql")
		if err := os.WriteFile(path, []byte(fileSrc), 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, "-f", path)
	}
	var out, errOut bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errOut)
	prompts := regexp.MustCompile(`(gsql> |  \.\.\. )`)
	return code, prompts.ReplaceAllString(out.String(), ""), errOut.String()
}

// plainResults lists the per-statement markers of the default output:
// "ok" or "(n row(s))".
func plainResults(stdout string) []string {
	return regexp.MustCompile(`(?m)^(ok|\(\d+ row\(s\)\))$`).FindAllString(stdout, -1)
}

// jsonLines decodes every stdout line as one JSON object.
func jsonLines(t *testing.T, stdout string) []map[string]json.RawMessage {
	t.Helper()
	var objs []map[string]json.RawMessage
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		var obj map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("stdout line %q is not a JSON object: %v", line, err)
		}
		objs = append(objs, obj)
	}
	return objs
}

// rowCounts returns the row_count of every object that has one, and
// how many of those carry a trace.
func rowCounts(objs []map[string]json.RawMessage) (counts []string, traced int) {
	for _, obj := range objs {
		if n, ok := obj["row_count"]; ok {
			counts = append(counts, string(n))
			if _, ok := obj["trace"]; ok {
				traced++
			}
		}
	}
	return counts, traced
}

// TestEveryModeEmitsOneResultPerStatement runs the four-statement
// script as a file and through the REPL in every output mode.
func TestEveryModeEmitsOneResultPerStatement(t *testing.T) {
	wantCounts := []string{"0", "0", "2", "1"}
	cases := []struct {
		name  string
		args  []string
		check func(t *testing.T, stdout, stderr string)
	}{
		{"plain", nil, func(t *testing.T, stdout, stderr string) {
			if got, want := plainResults(stdout), []string{"ok", "ok", "(2 row(s))", "(1 row(s))"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("results %q, want %q; stdout:\n%s", got, want, stdout)
			}
			if stderr != "" {
				t.Fatalf("stderr = %q, want nothing", stderr)
			}
		}},
		{"trace", []string{"-trace"}, func(t *testing.T, stdout, stderr string) {
			if got, want := plainResults(stdout), []string{"ok", "ok", "(2 row(s))", "(1 row(s))"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("results %q, want %q; stdout:\n%s", got, want, stdout)
			}
			if strings.Contains(stdout, "query (time=") {
				t.Fatalf("trace on stdout:\n%s", stdout)
			}
			if n := len(regexp.MustCompile(`(?m)^query \(time=`).FindAllString(stderr, -1)); n != 4 {
				t.Fatalf("%d traces on stderr, want 4:\n%s", n, stderr)
			}
		}},
		{"json", []string{"-json"}, func(t *testing.T, stdout, stderr string) {
			objs := jsonLines(t, stdout)
			counts, traced := rowCounts(objs)
			if len(objs) != 4 || !reflect.DeepEqual(counts, wantCounts) || traced != 0 {
				t.Fatalf("%d objects with row counts %v (%d traced), want 4 with %v untraced:\n%s", len(objs), counts, traced, wantCounts, stdout)
			}
			if got := string(objs[2]["rows"]); got != "[[1,2],[2,3]]" {
				t.Fatalf("third result rows = %s", got)
			}
		}},
		{"json trace", []string{"-json", "-trace"}, func(t *testing.T, stdout, stderr string) {
			objs := jsonLines(t, stdout)
			if counts, traced := rowCounts(objs); len(objs) != 4 || !reflect.DeepEqual(counts, wantCounts) || traced != 4 {
				t.Fatalf("%d objects with row counts %v (%d traced), want 4 with %v, all traced:\n%s", len(objs), counts, traced, wantCounts, stdout)
			}
			if stderr != "" {
				t.Fatalf("stderr = %q, want nothing", stderr)
			}
		}},
		{"stream", []string{"-stream"}, func(t *testing.T, stdout, stderr string) {
			objs := jsonLines(t, stdout)
			if counts, traced := rowCounts(objs); !reflect.DeepEqual(counts, wantCounts) || traced != 0 {
				t.Fatalf("trailers %v (%d traced), want %v untraced:\n%s", counts, traced, wantCounts, stdout)
			}
			if got := string(objs[0]["columns"]); got != "[]" {
				t.Fatalf("first frame = %v, want a header", objs[0])
			}
		}},
		{"stream trace", []string{"-stream", "-trace"}, func(t *testing.T, stdout, stderr string) {
			objs := jsonLines(t, stdout)
			if counts, traced := rowCounts(objs); !reflect.DeepEqual(counts, wantCounts) || traced != 4 {
				t.Fatalf("trailers %v (%d traced), want %v, all traced:\n%s", counts, traced, wantCounts, stdout)
			}
		}},
		{"analyze", []string{"-analyze"}, func(t *testing.T, stdout, stderr string) {
			if got := plainResults(stdout); len(got) != 4 || got[0] != "ok" || got[1] != "ok" {
				t.Fatalf("results %q, want ok, ok and two plans; stdout:\n%s", got, stdout)
			}
			if n := strings.Count(stdout, "QUERY PLAN"); n != 2 {
				t.Fatalf("%d plans, want one per SELECT:\n%s", n, stdout)
			}
			if !strings.Contains(stdout, "GraphMatch") || !strings.Contains(stdout, "rows=2") {
				t.Fatalf("plans lack actuals:\n%s", stdout)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name+"/file", func(t *testing.T) {
			code, stdout, stderr := gsql(t, script, "", c.args...)
			if code != 0 {
				t.Fatalf("exit %d; stderr:\n%s", code, stderr)
			}
			c.check(t, stdout, stderr)
		})
		t.Run(c.name+"/repl", func(t *testing.T) {
			code, stdout, stderr := gsql(t, "", replInput, c.args...)
			if code != 0 {
				t.Fatalf("exit %d; stderr:\n%s", code, stderr)
			}
			c.check(t, stdout, stderr)
		})
	}
}

// TestFailingStatement checks that a failing statement stops a -f
// script with exit status 1 after the earlier results are printed,
// while the REPL reports it and carries on.
func TestFailingStatement(t *testing.T) {
	const failing = `CREATE TABLE e (s BIGINT, d BIGINT);
INSERT INTO e VALUES (1, 2);
SELECT nope FROM e;
SELECT COUNT(*) FROM e;
`
	code, stdout, stderr := gsql(t, failing, "")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if got, want := plainResults(stdout), []string{"ok", "ok"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("results %q, want %q", got, want)
	}
	if !strings.Contains(stderr, `error: `) || !strings.Contains(stderr, `"nope"`) {
		t.Fatalf("stderr = %q, want the failing statement's error", stderr)
	}

	code, stdout, _ = gsql(t, failing, "", "-json")
	objs := jsonLines(t, stdout)
	if code != 1 || len(objs) != 3 || objs[2]["error"] == nil {
		t.Fatalf("-json: exit %d with %d objects, want 1 with two results and an error:\n%s", code, len(objs), stdout)
	}

	// A syntax error is reported at its position in the script.
	code, _, stderr = gsql(t, "SELECT 1;\nSELECT FROM;\nSELECT 2;\n", "")
	if code != 1 || !strings.Contains(stderr, "line 2 col 8") {
		t.Fatalf("exit %d, stderr %q; want 1 and the error at line 2 col 8", code, stderr)
	}

	code, stdout, stderr = gsql(t, "", failing)
	if code != 0 {
		t.Fatalf("REPL exit %d, want 0", code)
	}
	if got, want := plainResults(stdout), []string{"ok", "ok", "(1 row(s))"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("REPL results %q, want %q", got, want)
	}
	if !strings.Contains(stderr, `"nope"`) {
		t.Fatalf("REPL stderr = %q, want the failing statement's error", stderr)
	}
}

// TestWireModesAnswerLikeGsqld: a statement that fails mid-drain or
// returns a cell with no JSON encoding prints gsqld's shape and code —
// an error object for -json, an error trailer after the header for
// -stream — and stops the script.
func TestWireModesAnswerLikeGsqld(t *testing.T) {
	const inf = `{"row_count":0,"error":{"code":"internal","message":"json: unsupported value: +Inf"}}`
	const div = `{"row_count":0,"error":{"code":"sql_error","message":"division by zero"}}`
	for _, c := range []struct {
		name, script, mode, want string
	}{
		{"division json", "SELECT 1 / 0;\nSELECT 2;\n", "-json", div},
		{"division stream", "SELECT 1 / 0;\nSELECT 2;\n", "-stream", `{"columns":["(1 / 0)"]}` + "\n" + div},
		{"infinity json", "SELECT 1e308 * 10.0 AS x;\nSELECT 2;\n", "-json", inf},
		{"infinity stream", "SELECT 1e308 * 10.0 AS x;\nSELECT 2;\n", "-stream", `{"columns":["x"]}` + "\n" + inf},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := gsql(t, c.script, "", c.mode)
			if code != 1 || stdout != c.want+"\n" || stderr != "" {
				t.Fatalf("exit %d, stdout\n%s\nstderr %q; want exit 1, stdout\n%s", code, stdout, stderr, c.want)
			}
		})
	}
}

// encFailScript creates a table of n rows and selects its even ids with
// y = x * 1e308, which overflows to +Inf only at id bad; the next
// statement must not run.
func encFailScript(n, bad int) string {
	var b strings.Builder
	b.WriteString("CREATE TABLE enc (id BIGINT, x DOUBLE);\nINSERT INTO enc VALUES ")
	for id := 1; id <= n; id++ {
		x := fmt.Sprintf("%d.0 / %d", id, n*10)
		if id == bad {
			x = "2.0"
		}
		if id > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %s)", id, x)
	}
	b.WriteString(";\nSELECT id, x * 1e308 AS y FROM enc WHERE id % 2 = 0;\nSELECT 2;\n")
	return b.String()
}

// TestStreamMidResultEncodeFailure: a cell that fails to encode partway
// through a filtered result ends gsql -stream the way it ends gsqld's
// stream — every complete 1,024-row frame ahead of the bad row, then an
// error trailer counting their rows — with the bytes recorded from the
// encoder that cut frames in fixed windows before encoding them.
func TestStreamMidResultEncodeFailure(t *testing.T) {
	const (
		ddl     = `{"columns":[]}` + "\n" + `{"row_count":0}` + "\n"
		failure = `"error":{"code":"internal","message":"json: unsupported value: +Inf"}}` + "\n"
	)
	for _, c := range []struct {
		n, bad int
		sha    string // of all of stdout
		tail   string
	}{
		{20, 12, "b34be3f92ca9b7d48c1a07c23b243dee7b962a1d8e4274f13e6adfbb88c5def4",
			`{"columns":["id","y"]}` + "\n" + `{"row_count":0,` + failure},
		{2500, 2202, "db3e8360c51e54328bdc61a716a51f14f1fed054b49219c947a4bf01e746a757",
			`[2046,8.184e+306],[2048,8.192000000000001e+306]]}` + "\n" + `{"row_count":1024,` + failure},
	} {
		code, stdout, stderr := gsql(t, encFailScript(c.n, c.bad), "", "-stream")
		if code != 1 || stderr != "" || !strings.HasPrefix(stdout, ddl+ddl) || !strings.HasSuffix(stdout, c.tail) {
			t.Fatalf("%d rows: exit %d, stderr %q, stdout ends %q; want exit 1 and the tail %q", c.n, code, stderr, stdout[max(0, len(stdout)-200):], c.tail)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(stdout))); got != c.sha {
			t.Fatalf("%d rows: stdout sha256 %s, want %s", c.n, got, c.sha)
		}
	}
}
