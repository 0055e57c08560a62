package main

import (
	"strings"
	"testing"
	"time"
)

func TestCountRows(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int
	}{
		{`[[1,2,3.5],[4,5,6]]}`, 2},
		{`[["a]b","[["],["\"],[",1]]}`, 2},
		{`[[7,{"columns":["s"],"rows":[[1],[2],[3]]}]]}`, 1},
		{`[]}`, 0},
	} {
		got, err := countRows([]byte(c.in))
		if err != nil || got != c.want {
			t.Errorf("countRows(%s) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	if _, err := countRows([]byte(`[[1,2],[3`)); err == nil {
		t.Error("unterminated array accepted")
	}
}

func TestReadStream(t *testing.T) {
	c := newClient("http://unused")
	read := func(body string) (*response, error) {
		r := &response{}
		return r, c.readStream(strings.NewReader(body), r, time.Now())
	}
	r, err := read(`{"columns":["src","dst"]}` + "\n" + `{"rows":[[1,2],[3,4]]}` + "\n" + `{"rows":[[5,6]]}` + "\n" + `{"row_count":3}` + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if r.rowCount != 3 || r.frames != 2 || len(r.columns) != 2 || r.ttfr <= 0 || string(r.first) != `{"rows":[[1,2],[3,4]]}` {
		t.Errorf("response %+v", r)
	}
	rows, err := r.decodeFirstFrame()
	if err != nil || len(rows) != 2 {
		t.Errorf("first frame rows %v, %v", rows, err)
	}
	for name, body := range map[string]string{
		"no trailer":     `{"columns":[]}` + "\n" + `{"rows":[[1]]}` + "\n",
		"count mismatch": `{"columns":["a"]}` + "\n" + `{"rows":[[1]]}` + "\n" + `{"row_count":2}` + "\n",
		"rows first":     `{"rows":[[1]]}` + "\n" + `{"row_count":1}` + "\n",
		"after trailer":  `{"columns":["a"]}` + "\n" + `{"row_count":0}` + "\n" + `{"rows":[[1]]}` + "\n",
		"unknown frame":  `{"columns":["a"]}` + "\n" + `{"what":1}` + "\n",
	} {
		if _, err := read(body); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// An error trailer is a structured error, not a transport failure.
	r, err = read(`{"columns":["a"]}` + "\n" + `{"row_count":0,"error":{"code":"canceled","message":"x"}}` + "\n")
	if err != nil || r.err == nil || r.err.Code != "canceled" {
		t.Errorf("error trailer: %+v, %v", r, err)
	}
}
