// Package fingerprint normalizes SQL statements for cache keying:
// auto-parameterization. It rewrites constant literals in filter
// positions to ? placeholders in one pass over the token stream and
// extracts their typed values, so `WHERE id = 42` and `WHERE id = 43`
// share one canonical fingerprint — one session plan-cache entry, one
// server result-cache key shape — instead of each literal variant
// re-parsing, re-planning and re-executing.
//
// Safety model: normalization must be exactly semantics-preserving, so
// a literal is rewritten only when BOTH hold:
//
//   - Clause zone: the literal sits inside a WHERE, HAVING or ON
//     clause. SELECT-list literals are never touched (an unaliased
//     expression's output column name is derived from its rendered
//     text, so `SELECT 1+1` must keep its literal); ORDER BY integers
//     are output ordinals; LIMIT/OFFSET must stay constant; and the
//     graph clauses (REACHES/OVER/CHEAPEST/EDGE/UNNEST) conservatively
//     end the zone.
//   - Adjacency: the literal directly follows a comparison operator
//     (= < > <= >= <>), an IN-list '(' or ',', BETWEEN or BETWEEN's
//     AND — optionally through a unary minus, whose span is folded
//     into the placeholder so the extracted value carries the sign.
//     `DATE '...'` casts, LIKE patterns, function arguments and
//     bare literals keep their text.
//
// Values are typed exactly as the binder types inline literals
// (internal/analyze: integer unless the text contains . e E, float
// otherwise, strings unescaped), and a parameter is later bound with
// the kind of the value supplied — so the plan compiled for the
// normalized statement is operand-for-operand identical to the plan
// the inline literal would have produced. Anything uncertain (parse
// overflow, multi-statement input, non-SELECT statements, lexical
// errors) returns the input unchanged: skipping is always correct.
//
// Pre-existing ? placeholders are preserved; extracted literals and
// caller-supplied arguments interleave in token order via MergeValues,
// which refuses (ok=false) unless the caller supplied exactly as many
// arguments as the statement has raw placeholders — refusal routes the
// statement down the unnormalized path so mismatched-argument errors
// read exactly as before.
//
// The same pass records the statement's leading keyword, so a caller
// classifies a statement as a read or a write without lexing it again.
// graphsql.Stmt is the one caller: it normalizes each statement once
// and derives the fingerprint, the plan- and result-cache keys and the
// read/write class from the result.
package fingerprint

import (
	"strconv"
	"strings"

	"graphsql/internal/sql/lexer"
	"graphsql/internal/types"
)

// Normalized is the result of normalizing one statement.
type Normalized struct {
	// SQL is the canonical statement text: the input with each
	// extracted literal span replaced by '?'. When no literal was
	// extracted it is the input verbatim.
	SQL string
	// Literals holds the extracted values in token order.
	Literals []types.Value
	// FromLiteral has one entry per '?' in SQL, in order: true when the
	// placeholder came from an extracted literal, false when it was a
	// caller placeholder already present in the input.
	FromLiteral []bool
	// Keyword is the statement's first token, upper-cased, when that
	// token is a keyword; "" otherwise (including a lexical error in the
	// first token). Whatever whitespace and comments the lexer skips are
	// skipped here too.
	Keyword string
}

// Changed reports whether normalization extracted anything.
func (n *Normalized) Changed() bool { return len(n.Literals) > 0 }

// NumRawParams counts the caller-supplied placeholders in the input.
func (n *Normalized) NumRawParams() int {
	c := 0
	for _, fromLit := range n.FromLiteral {
		if !fromLit {
			c++
		}
	}
	return c
}

// MergeValues interleaves extracted literal values with the caller's
// arguments in statement order. ok is false — and the caller must fall
// back to the unnormalized statement — unless exactly NumRawParams
// arguments were supplied.
func (n *Normalized) MergeValues(args []types.Value) ([]types.Value, bool) {
	if len(args) != n.NumRawParams() {
		return nil, false
	}
	out := make([]types.Value, 0, len(n.FromLiteral))
	li, ai := 0, 0
	for _, fromLit := range n.FromLiteral {
		if fromLit {
			out = append(out, n.Literals[li])
			li++
		} else {
			out = append(out, args[ai])
			ai++
		}
	}
	return out, true
}

// zoneEnders are the keywords that end a WHERE/HAVING/ON eligibility
// zone at the current nesting depth. Boolean connectives, predicates
// and CASE machinery are deliberately absent — they keep the zone.
var zoneEnders = map[string]bool{
	"SELECT": true, "FROM": true, "GROUP": true, "ORDER": true, "BY": true,
	"LIMIT": true, "OFFSET": true, "UNION": true, "EXCEPT": true,
	"INTERSECT": true, "JOIN": true, "LEFT": true, "RIGHT": true,
	"FULL": true, "INNER": true, "OUTER": true, "CROSS": true,
	"USING": true, "VALUES": true, "SET": true, "ASC": true, "DESC": true,
	"NULLS": true, "FIRST": true, "LAST": true, "INSERT": true,
	"INTO": true, "CREATE": true, "TABLE": true, "DROP": true,
	"DELETE": true, "WITH": true, "LATERAL": true, "ORDINALITY": true,
	"PRIMARY": true, "KEY": true, "DEFAULT": true, "AS": true,
	// Graph clauses: no literal inside them is provably safe to
	// parameterize, so they conservatively end the zone.
	"REACHES": true, "OVER": true, "EDGE": true, "CHEAPEST": true,
	"UNNEST": true,
}

type frame struct {
	// eligible marks that the scan is inside a WHERE/HAVING/ON zone at
	// this paren depth.
	eligible bool
	// inList marks a paren group opened directly after IN, whose
	// comma-separated literal elements are extractable.
	inList bool
}

// Normalize rewrites filter literals in a single SELECT/WITH statement
// to placeholders. It never fails: any input it cannot handle — other
// statement kinds, multi-statement scripts, lexical errors — comes
// back unchanged with no extracted literals.
func Normalize(sql string) Normalized {
	ident := Normalized{SQL: sql}
	var l lexer.Lexer
	l.Reset(sql)

	type span struct{ start, end int }
	var spans []span
	var lits []types.Value
	var fromLit []bool

	stack := make([]frame, 1, 8)
	var prev1, prev2 lexer.Token
	// betweenState: 0 idle, 1 after an eligible BETWEEN (awaiting its
	// AND), 2 directly after that AND (next literal is the upper bound).
	betweenState := 0
	first := true
	sawSemi := false

	for {
		tok, err := l.Next()
		if err != nil {
			return ident
		}
		if tok.Type == lexer.EOF {
			break
		}
		if sawSemi {
			// A second statement after ';': error texts downstream
			// would name the rewritten literals, so leave it alone.
			return ident
		}
		if first {
			if tok.Type != lexer.Keyword {
				return ident
			}
			ident.Keyword = tok.Text
			if tok.Text != "SELECT" && tok.Text != "WITH" {
				return ident
			}
			first = false
		}
		top := &stack[len(stack)-1]
		keepBetween := false
		switch tok.Type {
		case lexer.Keyword:
			switch tok.Text {
			case "WHERE", "HAVING", "ON":
				top.eligible = true
				betweenState = 0
			case "BETWEEN":
				if top.eligible {
					betweenState = 1
					keepBetween = true
				}
			case "AND":
				if betweenState == 1 {
					betweenState = 2
					keepBetween = true
				}
			default:
				if zoneEnders[tok.Text] {
					top.eligible = false
					betweenState = 0
				}
			}
		case lexer.Symbol:
			switch tok.Text {
			case "(":
				stack = append(stack, frame{
					eligible: top.eligible,
					inList:   prev1.Type == lexer.Keyword && prev1.Text == "IN",
				})
			case ")":
				if len(stack) > 1 {
					stack = stack[:len(stack)-1]
				}
			case ";":
				sawSemi = true
			case "-":
				// A unary minus between an eligible prefix and its
				// literal; the BETWEEN upper-bound state rides along.
				keepBetween = betweenState == 2
			}
		case lexer.Param:
			fromLit = append(fromLit, false)
		case lexer.Number, lexer.String:
			if top.eligible {
				if v, start, ok := extract(tok, prev1, prev2, top, betweenState); ok {
					spans = append(spans, span{start, l.Offset()})
					lits = append(lits, v)
					fromLit = append(fromLit, true)
				}
			}
			// BETWEEN's own state survives until its AND even when the
			// lower bound is not a literal (e.g. BETWEEN x AND 5).
			keepBetween = betweenState == 1
		default:
			keepBetween = betweenState == 1
		}
		if betweenState == 2 && !keepBetween {
			betweenState = 0
		}
		prev2, prev1 = prev1, tok
	}
	if len(lits) == 0 {
		return ident
	}

	var b strings.Builder
	b.Grow(len(sql))
	last := 0
	for _, sp := range spans {
		b.WriteString(sql[last:sp.start])
		b.WriteByte('?')
		last = sp.end
	}
	b.WriteString(sql[last:])
	return Normalized{SQL: b.String(), Literals: lits, FromLiteral: fromLit, Keyword: ident.Keyword}
}

// extract decides whether the literal token may be parameterized given
// the two preceding tokens, and returns its typed value and the start
// of the source span to replace (the '-' when the sign is folded in).
func extract(tok, prev1, prev2 lexer.Token, top *frame, betweenState int) (types.Value, int, bool) {
	neg := false
	start := tok.Pos
	switch {
	case directPrefix(prev1, top, betweenState):
	case tok.Type == lexer.Number && prev1.Type == lexer.Symbol && prev1.Text == "-" &&
		directPrefix(prev2, top, betweenState):
		neg = true
		start = prev1.Pos
	default:
		return types.Value{}, 0, false
	}

	if tok.Type == lexer.String {
		if neg {
			return types.Value{}, 0, false
		}
		return types.NewString(tok.Text), start, true
	}
	// Mirror the binder's NumberLit typing (internal/analyze/expr.go):
	// integer unless the text contains . e E; on integer overflow the
	// binder falls back to float, but here we skip extraction instead —
	// leaving the literal inline is always equivalent.
	text := tok.Text
	if !strings.ContainsAny(text, ".eE") {
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return types.Value{}, 0, false
		}
		if neg {
			i = -i
		}
		return types.NewInt(i), start, true
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return types.Value{}, 0, false
	}
	if neg {
		f = -f
	}
	return types.NewFloat(f), start, true
}

// directPrefix reports whether a literal directly after token p is in
// an extractable position.
func directPrefix(p lexer.Token, top *frame, betweenState int) bool {
	switch p.Type {
	case lexer.Symbol:
		switch p.Text {
		case "=", "<", ">", "<=", ">=", "<>":
			return true
		case "(", ",":
			return top.inList
		}
	case lexer.Keyword:
		switch p.Text {
		case "BETWEEN":
			return betweenState >= 1
		case "AND":
			return betweenState == 2
		}
	}
	return false
}
