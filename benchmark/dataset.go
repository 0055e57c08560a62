package main

// The dataset as gsqld receives it: a SQL script POSTed to
// /graphs/{name}/load, the path a user of the server pays.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"graphsql/internal/ldbc"
	"graphsql/internal/types"
)

// insertRows is the row count of one multi-row INSERT in the script.
const insertRows = 1000

// The batch workload reads windows of batchPairs consecutive rows of a
// pairs(seq, src, dst) table; with pairsRows rows there are
// pairsRows-batchPairs+1 distinct windows, far more than a run can
// request, so no request repeats and the result cache never hits.
const (
	batchPairs = 128
	pairsRows  = 1 << 16
)

// inserts writes `INSERT INTO table VALUES (...),(...);` statements of
// insertRows rows each; row appends the i-th tuple's comma-separated
// values.
func inserts(b *bytes.Buffer, table string, n int, row func(b *bytes.Buffer, i int)) {
	for i := 0; i < n; i++ {
		switch {
		case i%insertRows == 0:
			if i > 0 {
				b.WriteString(";\n")
			}
			b.WriteString("INSERT INTO " + table + " VALUES (")
		default:
			b.WriteString(",(")
		}
		row(b, i)
		b.WriteByte(')')
	}
	if n > 0 {
		b.WriteString(";\n")
	}
}

func writeInt(b *bytes.Buffer, v int64) {
	var tmp [20]byte
	b.Write(strconv.AppendInt(tmp[:0], v, 10))
}

// loadScript renders the tables a workload needs. Weights are printed
// with 4 decimals like cmd/ldbcgen's CSV; loadedWeight gives the oracle
// the same rounded values.
func loadScript(ds *ldbc.Dataset, w *workload, pairSrc, pairDst []int64) string {
	var b bytes.Buffer
	b.Grow(16 << 20)
	person := func(b *bytes.Buffer, i int) {
		writeInt(b, ds.PersonIDs[i])
		b.WriteString(",'" + ds.FirstNames[i] + "','" + ds.LastNames[i] + "'")
	}
	b.WriteString("CREATE TABLE persons (id BIGINT, firstName VARCHAR, lastName VARCHAR);\n")
	inserts(&b, "persons", len(ds.PersonIDs), person)
	if w.hubs {
		b.WriteString("CREATE TABLE hubs (id BIGINT, firstName VARCHAR, lastName VARCHAR);\n")
		inserts(&b, "hubs", hubCount(ds), person)
	}
	b.WriteString("CREATE TABLE friends (src BIGINT, dst BIGINT, creationDate DATE, weight DOUBLE, iweight BIGINT);\n")
	inserts(&b, "friends", len(ds.Src), func(b *bytes.Buffer, i int) {
		var tmp [32]byte
		writeInt(b, ds.Src[i])
		b.WriteByte(',')
		writeInt(b, ds.Dst[i])
		b.WriteString(",DATE '" + types.FormatDate(ds.CreationDays[i]) + "',")
		b.Write(strconv.AppendFloat(tmp[:0], ds.Weight[i], 'f', 4, 64))
		b.WriteByte(',')
		writeInt(b, ds.IWeight[i])
	})
	if w.pairs {
		b.WriteString("CREATE TABLE pairs (seq BIGINT, src BIGINT, dst BIGINT);\n")
		inserts(&b, "pairs", len(pairSrc), func(b *bytes.Buffer, i int) {
			writeInt(b, int64(i))
			b.WriteByte(',')
			writeInt(b, pairSrc[i])
			b.WriteByte(',')
			writeInt(b, pairDst[i])
		})
	}
	if w.visits {
		b.WriteString("CREATE TABLE visits (person BIGINT, day BIGINT);\n")
	}
	return b.String()
}

// loadBody marshals the POST /graphs/{name}/load payload.
func loadBody(script string, indexed bool) ([]byte, error) {
	req := map[string]any{"script": script}
	if indexed {
		req["indexes"] = []map[string]string{{"table": "friends", "src": "src", "dst": "dst"}}
	}
	return json.Marshal(req)
}

// loadGraph POSTs a load and returns its wall time.
func loadGraph(base, graph string, body []byte) (time.Duration, error) {
	start := time.Now()
	resp, err := http.Post(base+"/graphs/"+graph+"/load", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("load %s: status %d: %s", graph, resp.StatusCode, out)
	}
	return time.Since(start), nil
}
