package testutil

import (
	"strconv"
	"strings"

	"graphsql/internal/types"
)

// A row-at-a-time relational oracle for the executor's breaker cores.
// It shares no code with internal/exec on purpose — no key encoding, no
// hashing, no shards, no sort package: rows are []types.Value visited
// one at a time in input order. It defines what the cores must return:
//
//   - Keys: two values are the same key when both are NULL, or when they
//     are of one kind family (integer-backed, float, string) and equal,
//     with -0 equal to 0 and every NaN equal to every NaN.
//   - Order: input order is kept — a key's first occurrence, groups by
//     first appearance, join pairs by left row then right row.

// oracleKey renders v so that equal strings mean the same key.
func oracleKey(v types.Value) string {
	switch {
	case v.Null:
		return "N"
	case v.K == types.KindFloat && v.F != v.F:
		return "F:NaN"
	case v.K == types.KindFloat && v.F == 0:
		return "F:0"
	case v.K == types.KindFloat:
		return "F:" + strconv.FormatFloat(v.F, 'g', -1, 64)
	case v.K == types.KindString:
		return "S:" + strconv.Quote(v.S)
	case v.K == types.KindPath:
		return "P:" + strconv.Quote(v.String())
	}
	return "I:" + strconv.FormatInt(v.I, 10)
}

// oracleRowKey is the key of a tuple.
func oracleRowKey(vals []types.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = oracleKey(v)
	}
	return strings.Join(parts, "\x00")
}

// OracleDistinct keeps the first occurrence of every row.
func OracleDistinct(rows [][]types.Value) [][]types.Value {
	return OracleSetOp("EXCEPT", false, rows, nil)
}

// OracleSetOp evaluates op ("UNION", "EXCEPT" or "INTERSECT"), with
// multiset semantics when all is set. UNION ALL concatenates; UNION is
// DISTINCT over left then right. EXCEPT and INTERSECT keep left rows in
// order: the j-th left occurrence (from 0) of a key the right holds c
// times survives INTERSECT ALL iff j < c, EXCEPT ALL iff j >= c, and
// the set forms keep only j = 0, iff c > 0 (INTERSECT) or c = 0
// (EXCEPT).
func OracleSetOp(op string, all bool, left, right [][]types.Value) [][]types.Value {
	if op == "UNION" {
		both := append(append([][]types.Value{}, left...), right...)
		if all {
			return both
		}
		return OracleDistinct(both)
	}
	inRight := map[string]int{}
	for _, r := range right {
		inRight[oracleRowKey(r)]++
	}
	intersect := op == "INTERSECT"
	occurrences := map[string]int{}
	out := [][]types.Value{}
	for _, r := range left {
		k := oracleRowKey(r)
		j, c := occurrences[k], inRight[k]
		occurrences[k]++
		if (all && (j < c) == intersect) || (!all && j == 0 && (c > 0) == intersect) {
			out = append(out, r)
		}
	}
	return out
}

// OracleAgg is one aggregate — Op "COUNT(*)", "COUNT", "SUM", "AVG",
// "MIN" or "MAX" — over column Col (unused by COUNT(*)).
type OracleAgg struct {
	Op       string
	Col      int
	Distinct bool
}

// OracleAggregate groups rows by the groupBy columns and emits, per
// group, the first row's groupBy values followed by the aggregates. No
// groupBy columns is one global group, present even over zero rows.
// Aggregates skip NULLs; DISTINCT keeps each value's first occurrence.
// SUM over integers is an integer; SUM over floats and AVG add float64
// values in row order from +0; MIN/MAX keep the first of equal extremes
// under types.Compare; all but COUNT are NULL over no values.
func OracleAggregate(rows [][]types.Value, groupBy []int, aggs []OracleAgg) [][]types.Value {
	var order []string
	members := map[string][][]types.Value{}
	for _, r := range rows {
		g := make([]types.Value, len(groupBy))
		for i, c := range groupBy {
			g[i] = r[c]
		}
		k := oracleRowKey(g)
		if _, ok := members[k]; !ok {
			order = append(order, k)
		}
		members[k] = append(members[k], r)
	}
	if len(groupBy) == 0 && len(order) == 0 {
		order = []string{""}
	}
	out := [][]types.Value{}
	for _, k := range order {
		var row []types.Value
		for _, c := range groupBy {
			row = append(row, members[k][0][c])
		}
		for _, a := range aggs {
			row = append(row, oracleFold(a, members[k]))
		}
		out = append(out, row)
	}
	return out
}

// oracleFold evaluates one aggregate over one group's rows.
func oracleFold(a OracleAgg, group [][]types.Value) types.Value {
	if a.Op == "COUNT(*)" {
		return types.NewInt(int64(len(group)))
	}
	var vals []types.Value
	seen := map[string]bool{}
	for _, r := range group {
		if v := r[a.Col]; !v.Null && !(a.Distinct && seen[oracleKey(v)]) {
			seen[oracleKey(v)] = true
			vals = append(vals, v)
		}
	}
	switch {
	case a.Op == "COUNT":
		return types.NewInt(int64(len(vals)))
	case len(vals) == 0:
		return types.NewNull(types.KindNull)
	case a.Op == "SUM" || a.Op == "AVG":
		sumF, sumI := 0.0, int64(0)
		for _, v := range vals {
			sumF += v.AsFloat()
			sumI += v.I
		}
		switch {
		case a.Op == "AVG":
			return types.NewFloat(sumF / float64(len(vals)))
		case vals[0].K == types.KindFloat:
			return types.NewFloat(sumF)
		}
		return types.NewInt(sumI)
	}
	best := vals[0]
	for _, v := range vals[1:] {
		if c := types.Compare(v, best); (a.Op == "MIN" && c < 0) || (a.Op == "MAX" && c > 0) {
			best = v
		}
	}
	return best
}

// OracleJoin joins by nested loops. kind is "CROSS", "INNER", "LEFT",
// "SEMI" or "ANTI"; on (nil: always) is the whole join condition,
// equality pairs and residual alike. Output rows are the left values
// then the right ones, by left row then right row; LEFT null-extends an
// unmatched left row over rightWidth columns; SEMI/ANTI keep the left
// rows with/without a match.
func OracleJoin(kind string, left, right [][]types.Value, rightWidth int, on func(l, r []types.Value) bool) [][]types.Value {
	out := [][]types.Value{}
	for _, l := range left {
		matched := false
		for _, r := range right {
			if on == nil || on(l, r) {
				matched = true
				if kind != "SEMI" && kind != "ANTI" {
					out = append(out, append(append([]types.Value{}, l...), r...))
				}
			}
		}
		switch {
		case kind == "LEFT" && !matched:
			row := append([]types.Value{}, l...)
			for len(row) < len(l)+rightWidth {
				row = append(row, types.NewNull(types.KindNull))
			}
			out = append(out, row)
		case kind == "SEMI" && matched, kind == "ANTI" && !matched:
			out = append(out, l)
		}
	}
	return out
}

// OracleSortKey is one ORDER BY key over column Col. NullsFirst is -1
// for the default (NULLS LAST ascending, NULLS FIRST descending), 0 for
// NULLS LAST, 1 for NULLS FIRST.
type OracleSortKey struct {
	Col        int
	Desc       bool
	NullsFirst int
}

// OracleSort orders rows by keys under types.Compare by insertion: each
// row goes after every earlier row it does not strictly precede, so
// ties keep input order.
func OracleSort(rows [][]types.Value, keys []OracleSortKey) [][]types.Value {
	precedes := func(a, b []types.Value) bool {
		for _, k := range keys {
			x, y := a[k.Col], b[k.Col]
			if x.Null != y.Null {
				return x.Null == (k.NullsFirst == 1 || (k.NullsFirst == -1 && k.Desc))
			}
			if c := types.Compare(x, y); !x.Null && c != 0 {
				return (c < 0) != k.Desc
			}
		}
		return false
	}
	out := make([][]types.Value, 0, len(rows))
	for _, r := range rows {
		i := len(out)
		for i > 0 && precedes(r, out[i-1]) {
			i--
		}
		out = append(out[:i], append([][]types.Value{r}, out[i:]...)...)
	}
	return out
}
