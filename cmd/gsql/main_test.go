package main

import (
	"bytes"
	"encoding/json"
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
