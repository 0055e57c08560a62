package graphsql

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// LoadCSV bulk-loads CSV data into an existing table. The first record
// must be a header naming a subset of the table's columns (matched
// case-insensitively, in any order); remaining columns are filled with
// NULL. Cell parsing follows the column type; empty or all-space cells
// are NULL. It returns the number of rows loaded; on an error, which
// names its CSV row (the header is row 1), the rows before that one
// stay loaded.
//
// Records are read with encoding/csv, whose rules apply: inside a
// quoted field a "\r\n" reads as "\n", while a lone "\r" is kept. So a
// VARCHAR that DumpCSV wrote with "\r\n" in it loads back with "\n".
//
// Together with cmd/ldbcgen this round-trips generated datasets
// through files.
func (db *DB) LoadCSV(table string, r io.Reader) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.eng.Catalog().Table(table)
	if !ok {
		return 0, fmt.Errorf("table %q does not exist", table)
	}
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return 0, fmt.Errorf("CSV row 1: reading the header: %w", err)
	}
	colIdx := make([]int, len(header))
	for i, name := range header {
		idx := t.Schema.ColIndex("", strings.TrimSpace(name))
		if idx < 0 {
			return 0, fmt.Errorf("CSV row 1: table %s has no column %q", t.Name, name)
		}
		colIdx[i] = idx
	}
	rows := 0
	rowBuf := make([]types.Value, len(t.Schema))
	batch := storage.NewChunk(t.Schema)
	// flush appends the rows read since its last call, then returns
	// the number of rows loaded and err.
	flush := func(err error) (int, error) {
		if aerr := t.AppendChunk(batch); aerr != nil {
			return rows - batch.NumRows(), aerr
		}
		batch = storage.NewChunk(t.Schema)
		return rows, err
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return flush(fmt.Errorf("CSV row %d: %w", rows+2, err))
		}
		for i := range rowBuf {
			rowBuf[i] = types.NewNull(t.Schema[i].Kind)
		}
		for i, cell := range rec {
			v, err := parseCell(cell, t.Schema[colIdx[i]].Kind)
			if err != nil {
				return flush(fmt.Errorf("CSV row %d column %s: %w", rows+2, header[i], err))
			}
			rowBuf[colIdx[i]] = v
		}
		batch.AppendRow(rowBuf)
		rows++
		if batch.NumRows() == csvBatchRows {
			if n, err := flush(nil); err != nil {
				return n, err
			}
		}
	}
	return flush(nil)
}

// csvBatchRows is how many CSV rows LoadCSV appends at a time.
const csvBatchRows = 1 << 14

// LoadCSVFile is LoadCSV over a file path.
func (db *DB) LoadCSVFile(table, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return db.LoadCSV(table, f)
}

// DumpCSV writes a query result as CSV (header + rows). Dates use
// YYYY-MM-DD; nested-table paths are rendered with Path.String; NULLs
// are empty cells. A string is written as it is, quoted where CSV needs
// it; LoadCSV reads it back the same, except that a "\r\n" in it comes
// back as "\n" (see LoadCSV).
func (db *DB) DumpCSV(w io.Writer, sql string, args ...any) error {
	res, err := db.Query(sql, args...)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(res.Columns); err != nil {
		return err
	}
	rec := make([]string, len(res.Columns))
	for _, row := range res.Rows {
		for j, v := range row {
			if v == nil {
				rec[j] = ""
			} else {
				rec[j] = formatCell(v)
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// parseCell converts one CSV cell to a typed value.
func parseCell(cell string, kind types.Kind) (types.Value, error) {
	s := strings.TrimSpace(cell)
	if s == "" {
		return types.NewNull(kind), nil
	}
	switch kind {
	case types.KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return types.Value{}, fmt.Errorf("invalid integer %q", s)
		}
		return types.NewInt(i), nil
	case types.KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return types.Value{}, fmt.Errorf("invalid number %q", s)
		}
		return types.NewFloat(f), nil
	case types.KindBool:
		switch strings.ToLower(s) {
		case "true", "t", "1":
			return types.NewBool(true), nil
		case "false", "f", "0":
			return types.NewBool(false), nil
		}
		return types.Value{}, fmt.Errorf("invalid boolean %q", s)
	case types.KindDate:
		d, err := types.ParseDate(s)
		if err != nil {
			return types.Value{}, err
		}
		return types.NewDate(d), nil
	case types.KindString:
		return types.NewString(cell), nil
	}
	return types.Value{}, fmt.Errorf("cannot load CSV into %v column", kind)
}

// Tables lists the catalog's table names; Schema describes one table.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.eng.Catalog().TableNames()
}

// TableSchema returns "name TYPE" descriptions of a table's columns.
func (db *DB) TableSchema(table string) ([]string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.eng.Catalog().Table(table)
	if !ok {
		return nil, fmt.Errorf("table %q does not exist", table)
	}
	out := make([]string, len(t.Schema))
	for i, m := range t.Schema {
		out[i] = fmt.Sprintf("%s %v", m.Name, m.Kind)
	}
	return out, nil
}
