// Package parser implements a recursive-descent parser for the SQL
// dialect, covering standard SELECT blocks (joins, CTEs, grouping, set
// operations, subqueries), DDL/DML, and the paper's graph extension:
// the REACHES reachability predicate, the CHEAPEST SUM summary
// function with the AS (cost, path) multi-alias form, and lateral
// UNNEST with WITH ORDINALITY (§2, §3.1).
package parser

import (
	"fmt"
	"strings"

	"graphsql/internal/sql/ast"
	"graphsql/internal/sql/lexer"
)

// Parser consumes a token stream produced by the lexer.
type Parser struct {
	toks   []lexer.Token
	pos    int
	params int
}

// Error is a parse error with source position.
type Error struct {
	Msg       string
	Line, Col int
}

func (e *Error) Error() string {
	return fmt.Sprintf("parse error at line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// Parse parses a single SQL statement (a trailing semicolon is
// allowed).
func Parse(src string) (ast.Statement, error) {
	s := newSingle(src)
	var stmt ast.Statement
	n := 0
	for {
		st, err := s.Next()
		if err != nil {
			return nil, err
		}
		if st == nil {
			break
		}
		stmt = st
		n++
	}
	if n != 1 {
		return nil, fmt.Errorf("expected exactly one statement, got %d", n)
	}
	return stmt, nil
}

// ParseWithParams parses a single SQL statement (trailing semicolons
// are allowed) and reports how many ? placeholders it used.
func ParseWithParams(src string) (ast.Statement, int, error) {
	s := newSingle(src)
	if err := s.scan(false); err != nil {
		return nil, 0, err
	}
	stmt, err := s.p.statement()
	if err != nil {
		return nil, 0, err
	}
	nparams := s.p.params
	// Only separators may follow.
	if err := s.scan(true); err != nil {
		return nil, 0, err
	}
	if t := s.p.peek(); t.Type != lexer.EOF {
		return nil, 0, s.p.errorf("unexpected %s after statement", t)
	}
	return stmt, nparams, nil
}

// Script iterates over the statements of a semicolon-separated
// script: each Next reads one statement's tokens, up to and including
// its ';', and parses them, so a script of any length holds one
// statement's tokens and AST at a time. Token positions are
// script-global, so an error points into the whole script. Empty
// statements (bare ';', comment-only segments) are skipped.
type Script struct {
	src        string
	lex        lexer.Lexer
	p          Parser
	start, end int // source span of the current statement
}

// NewScript returns an iterator over the statements of src.
func NewScript(src string) *Script {
	s := &Script{src: src}
	s.lex.Reset(src)
	return s
}

// newSingle is NewScript for a single-statement parse: the token
// buffer is sized for the whole input up front, as lexer.Tokenize
// sizes it, so it is allocated exactly once.
func newSingle(src string) *Script {
	s := NewScript(src)
	s.p.toks = make([]lexer.Token, 0, len(src)/3+8)
	return s
}

// Next parses the next statement; it returns nil, nil at the end of
// the script. A script cannot continue past an error.
func (s *Script) Next() (ast.Statement, error) {
	if err := s.scan(true); err != nil {
		return nil, err
	}
	if s.p.peek().Type == lexer.EOF {
		return nil, nil
	}
	return s.p.statement()
}

// Text returns the source of the statement Next last returned,
// trimmed, without its ';'.
func (s *Script) Text() string { return strings.TrimSpace(s.src[s.start:s.end]) }

// scan loads the parser with the next statement's tokens: up to and
// including its ';' (followed by an end-of-input token, so the parser
// never reads past the statement), or up to the end of the input.
// With skipEmpty, the ';' of empty statements are dropped first. The
// token buffer is reused from statement to statement.
func (s *Script) scan(skipEmpty bool) error {
	toks := s.p.toks[:0]
	s.start = s.lex.Offset()
	for {
		t, err := s.lex.Next()
		if err != nil {
			return err
		}
		semi := t.Type == lexer.Symbol && t.Text == ";"
		if semi && skipEmpty && len(toks) == 0 {
			s.start = s.lex.Offset()
			continue
		}
		toks = append(toks, t)
		if semi {
			toks = append(toks, lexer.Token{Type: lexer.EOF, Pos: t.Pos + 1, Line: t.Line, Col: t.Col + 1})
		}
		if semi || t.Type == lexer.EOF {
			s.end = t.Pos
			break
		}
	}
	s.p.toks, s.p.pos, s.p.params = toks, 0, 0
	return nil
}

// statement parses one statement from the loaded tokens; only its ';'
// or the end of the input may follow it.
func (p *Parser) statement() (ast.Statement, error) {
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if !p.peekSymbol(";") && p.peek().Type != lexer.EOF {
		return nil, p.errorf("unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

// ---------------------------------------------------------------------------
// token helpers

func (p *Parser) peek() lexer.Token { return p.toks[p.pos] }

func (p *Parser) peekAt(off int) lexer.Token {
	if p.pos+off >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+off]
}

func (p *Parser) next() lexer.Token {
	t := p.toks[p.pos]
	if t.Type != lexer.EOF {
		p.pos++
	}
	return t
}

func (p *Parser) errorf(format string, args ...interface{}) error {
	t := p.peek()
	return &Error{Msg: fmt.Sprintf(format, args...), Line: t.Line, Col: t.Col}
}

func (p *Parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.Type == lexer.Keyword && t.Text == kw
}

func (p *Parser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *Parser) peekSymbol(sym string) bool {
	t := p.peek()
	return t.Type == lexer.Symbol && t.Text == sym
}

func (p *Parser) acceptSymbol(sym string) bool {
	if p.peekSymbol(sym) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q, found %s", sym, p.peek())
	}
	return nil
}

// expectIdent consumes an identifier. Soft keywords that commonly
// double as names (type names etc.) are not accepted; quoted
// identifiers always are.
func (p *Parser) expectIdent(what string) (string, error) {
	t := p.peek()
	if t.Type != lexer.Ident {
		return "", p.errorf("expected %s, found %s", what, t)
	}
	p.next()
	return t.Text, nil
}

// ---------------------------------------------------------------------------
// statements

func (p *Parser) parseStatement() (ast.Statement, error) {
	t := p.peek()
	if t.Type != lexer.Keyword {
		return nil, p.errorf("expected a statement, found %s", t)
	}
	switch t.Text {
	case "SELECT", "WITH":
		return p.parseSelect()
	case "CREATE":
		return p.parseCreateTable()
	case "INSERT":
		return p.parseInsert()
	case "DROP":
		return p.parseDropTable()
	case "DELETE":
		return p.parseDelete()
	case "SET":
		return p.parseSet()
	case "EXPLAIN":
		return p.parseExplain()
	}
	return nil, p.errorf("unsupported statement %s", t.Text)
}

// parseExplain consumes EXPLAIN [ANALYZE] <select>. Only SELECT (and
// WITH ... SELECT) can be explained: write statements would have to
// run to be analyzed, and refusing them keeps EXPLAIN side-effect-free
// by construction except for the documented EXPLAIN ANALYZE execution.
func (p *Parser) parseExplain() (ast.Statement, error) {
	p.next() // EXPLAIN
	analyze := p.acceptKeyword("ANALYZE")
	t := p.peek()
	if t.Type != lexer.Keyword || (t.Text != "SELECT" && t.Text != "WITH") {
		return nil, p.errorf("EXPLAIN supports only SELECT statements, found %s", t)
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &ast.ExplainStmt{Analyze: analyze, Stmt: sel}, nil
}

// parseSet consumes SET name = value | SET name = DEFAULT.
func (p *Parser) parseSet() (ast.Statement, error) {
	p.next() // SET
	name, err := p.expectIdent("setting name")
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("="); err != nil {
		return nil, err
	}
	if p.acceptKeyword("DEFAULT") {
		return &ast.SetStmt{Name: name, Default: true}, nil
	}
	v, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ast.SetStmt{Name: name, Value: v}, nil
}

func (p *Parser) parseCreateTable() (ast.Statement, error) {
	p.next() // CREATE
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var cols []ast.ColumnDef
	for {
		cn, err := p.expectIdent("column name")
		if err != nil {
			return nil, err
		}
		tn, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		cols = append(cols, ast.ColumnDef{Name: cn, TypeName: tn})
		// Skip PRIMARY KEY / NOT NULL noise words after the type.
		for {
			switch {
			case p.acceptKeyword("PRIMARY"):
				if err := p.expectKeyword("KEY"); err != nil {
					return nil, err
				}
			case p.peekKeyword("NOT") && p.peekAt(1).Text == "NULL":
				p.next()
				p.next()
			default:
				goto delim
			}
		}
	delim:
		if p.acceptSymbol(",") {
			continue
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		break
	}
	return &ast.CreateTableStmt{Name: name, Columns: cols}, nil
}

// parseTypeName consumes a type name such as INT, BIGINT, DOUBLE
// [PRECISION], VARCHAR[(n)], BOOLEAN, DATE, TEXT.
func (p *Parser) parseTypeName() (string, error) {
	t := p.peek()
	if t.Type != lexer.Keyword && t.Type != lexer.Ident {
		return "", p.errorf("expected a type name, found %s", t)
	}
	p.next()
	name := strings.ToUpper(t.Text)
	if name == "DOUBLE" && p.peekKeyword("PRECISION") {
		p.next()
	}
	// Discard length arguments: VARCHAR(32), CHAR(1) ...
	if p.acceptSymbol("(") {
		for !p.peekSymbol(")") {
			if p.peek().Type == lexer.EOF {
				return "", p.errorf("unterminated type argument list")
			}
			p.next()
		}
		p.next()
	}
	return name, nil
}

func (p *Parser) parseInsert() (ast.Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	stmt := &ast.InsertStmt{Table: name}
	if p.peekSymbol("(") {
		p.next()
		for {
			cn, err := p.expectIdent("column name")
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, cn)
			if p.acceptSymbol(",") {
				continue
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			break
		}
	}
	switch {
	case p.acceptKeyword("VALUES"):
		for {
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			var row []ast.Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if p.acceptSymbol(",") {
					continue
				}
				break
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			stmt.Rows = append(stmt.Rows, row)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	case p.peekKeyword("SELECT") || p.peekKeyword("WITH"):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		stmt.Select = sel
	default:
		return nil, p.errorf("expected VALUES or SELECT, found %s", p.peek())
	}
	return stmt, nil
}

func (p *Parser) parseDropTable() (ast.Statement, error) {
	p.next() // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	return &ast.DropTableStmt{Name: name}, nil
}

func (p *Parser) parseDelete() (ast.Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	stmt := &ast.DeleteStmt{Table: name}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

// ---------------------------------------------------------------------------
// SELECT

func (p *Parser) parseSelect() (*ast.SelectStmt, error) {
	stmt := &ast.SelectStmt{}
	if p.acceptKeyword("WITH") {
		for {
			name, err := p.expectIdent("CTE name")
			if err != nil {
				return nil, err
			}
			cte := ast.CTE{Name: name}
			if p.peekSymbol("(") {
				p.next()
				for {
					cn, err := p.expectIdent("column alias")
					if err != nil {
						return nil, err
					}
					cte.Columns = append(cte.Columns, cn)
					if p.acceptSymbol(",") {
						continue
					}
					break
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			inner, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			cte.Select = inner
			stmt.With = append(stmt.With, cte)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	body, err := p.parseQueryBody()
	if err != nil {
		return nil, err
	}
	stmt.Body = body

	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := ast.OrderItem{Expr: e, NullsFirst: -1}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			if p.acceptKeyword("NULLS") {
				switch {
				case p.acceptKeyword("FIRST"):
					item.NullsFirst = 1
				case p.acceptKeyword("LAST"):
					item.NullsFirst = 0
				default:
					return nil, p.errorf("expected FIRST or LAST after NULLS")
				}
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Limit = e
	}
	if p.acceptKeyword("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Offset = e
	}
	return stmt, nil
}

// parseQueryBody handles UNION / EXCEPT / INTERSECT chains
// (left-associative, equal precedence).
func (p *Parser) parseQueryBody() (ast.QueryBody, error) {
	left, err := p.parseCoreOrParen()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.peekKeyword("UNION"):
			op = "UNION"
		case p.peekKeyword("EXCEPT"):
			op = "EXCEPT"
		case p.peekKeyword("INTERSECT"):
			op = "INTERSECT"
		default:
			return left, nil
		}
		p.next()
		all := p.acceptKeyword("ALL")
		right, err := p.parseCoreOrParen()
		if err != nil {
			return nil, err
		}
		left = &ast.SetOp{Op: op, All: all, Left: left, Right: right}
	}
}

func (p *Parser) parseCoreOrParen() (ast.QueryBody, error) {
	if p.peekSymbol("(") && (p.peekAt(1).Text == "SELECT" || p.peekAt(1).Text == "WITH") {
		p.next()
		inner, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		if len(inner.With) > 0 || len(inner.OrderBy) > 0 || inner.Limit != nil {
			// A parenthesized full query inside a set operation; wrap
			// it as a derived-table core so its clauses survive.
			core := &ast.SelectCore{
				Items: []ast.SelectItem{{Star: true}},
				From:  []ast.TableExpr{&ast.SubqueryRef{Select: inner, Alias: "__paren"}},
			}
			return core, nil
		}
		return inner.Body, nil
	}
	return p.parseSelectCore()
}

func (p *Parser) parseSelectCore() (*ast.SelectCore, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	core := &ast.SelectCore{}
	if p.acceptKeyword("DISTINCT") {
		core.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		core.Items = append(core.Items, item)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if p.acceptKeyword("FROM") {
		for {
			te, err := p.parseTableExpr()
			if err != nil {
				return nil, err
			}
			core.From = append(core.From, te)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			core.GroupBy = append(core.GroupBy, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Having = e
	}
	return core, nil
}

func (p *Parser) parseSelectItem() (ast.SelectItem, error) {
	// SELECT * and qualifier.*
	if p.peekSymbol("*") {
		p.next()
		return ast.SelectItem{Star: true}, nil
	}
	if p.peek().Type == lexer.Ident && p.peekAt(1).Text == "." && p.peekAt(2).Text == "*" {
		tbl := p.next().Text
		p.next()
		p.next()
		return ast.SelectItem{Star: true, StarTable: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return ast.SelectItem{}, err
	}
	item := ast.SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		// AS (a, b) multi-alias form for CHEAPEST SUM (§2).
		if p.acceptSymbol("(") {
			for {
				a, err := p.expectIdent("output name")
				if err != nil {
					return ast.SelectItem{}, err
				}
				item.Aliases = append(item.Aliases, a)
				if p.acceptSymbol(",") {
					continue
				}
				break
			}
			if err := p.expectSymbol(")"); err != nil {
				return ast.SelectItem{}, err
			}
		} else {
			a, err := p.expectIdent("alias")
			if err != nil {
				return ast.SelectItem{}, err
			}
			item.Aliases = []string{a}
		}
	} else if p.peek().Type == lexer.Ident {
		item.Aliases = []string{p.next().Text}
	}
	return item, nil
}

// ---------------------------------------------------------------------------
// table expressions

func (p *Parser) parseTableExpr() (ast.TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var jt ast.JoinType
		var needOn bool
		switch {
		case p.peekKeyword("JOIN"):
			p.next()
			jt, needOn = ast.JoinInner, true
		case p.peekKeyword("INNER") && p.peekAt(1).Text == "JOIN":
			p.next()
			p.next()
			jt, needOn = ast.JoinInner, true
		case p.peekKeyword("LEFT"):
			p.next()
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt, needOn = ast.JoinLeft, true
		case p.peekKeyword("CROSS") && p.peekAt(1).Text == "JOIN":
			p.next()
			p.next()
			jt, needOn = ast.JoinCross, false
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		var on ast.Expr
		if needOn {
			// LEFT JOIN UNNEST(...) ON TRUE is the outer-lateral form.
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if u, ok := right.(*ast.UnnestRef); ok && jt == ast.JoinLeft {
			u.Outer = true
		}
		left = &ast.JoinExpr{Type: jt, Left: left, Right: right, On: on}
	}
}

func (p *Parser) parseTablePrimary() (ast.TableExpr, error) {
	p.acceptKeyword("LATERAL") // lateral is implicit in this dialect
	switch {
	case p.peekKeyword("UNNEST"):
		p.next()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		u := &ast.UnnestRef{Expr: e}
		if p.peekKeyword("WITH") && p.peekAt(1).Text == "ORDINALITY" {
			p.next()
			p.next()
			u.Ordinality = true
		}
		if p.acceptKeyword("AS") {
			a, err := p.expectIdent("alias")
			if err != nil {
				return nil, err
			}
			u.Alias = a
		} else if p.peek().Type == lexer.Ident {
			u.Alias = p.next().Text
		}
		return u, nil
	case p.peekSymbol("("):
		// Derived table or parenthesized join.
		if p.peekAt(1).Text == "SELECT" || p.peekAt(1).Text == "WITH" {
			p.next()
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			ref := &ast.SubqueryRef{Select: sel}
			if p.acceptKeyword("AS") {
				a, err := p.expectIdent("alias")
				if err != nil {
					return nil, err
				}
				ref.Alias = a
			} else if p.peek().Type == lexer.Ident {
				ref.Alias = p.next().Text
			}
			return ref, nil
		}
		p.next()
		te, err := p.parseTableExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return te, nil
	default:
		name, err := p.expectIdent("table name")
		if err != nil {
			return nil, err
		}
		ref := &ast.TableRef{Name: name}
		if p.acceptKeyword("AS") {
			a, err := p.expectIdent("alias")
			if err != nil {
				return nil, err
			}
			ref.Alias = a
		} else if p.peek().Type == lexer.Ident {
			ref.Alias = p.next().Text
		}
		return ref, nil
	}
}

// ---------------------------------------------------------------------------
// expressions (precedence climbing)

func (p *Parser) parseExpr() (ast.Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (ast.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peekKeyword("OR") {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &ast.BinaryExpr{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (ast.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peekKeyword("AND") {
		p.next()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &ast.BinaryExpr{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (ast.Expr, error) {
	if p.peekKeyword("NOT") {
		p.next()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &ast.UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

// parseComparison handles binary comparisons and the postfix predicate
// forms: IS [NOT] NULL, [NOT] IN, [NOT] BETWEEN, [NOT] LIKE and the
// REACHES graph predicate.
func (p *Parser) parseComparison() (ast.Expr, error) {
	left, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch {
		case t.Type == lexer.Symbol && isCompareOp(t.Text):
			p.next()
			right, err := p.parseConcat()
			if err != nil {
				return nil, err
			}
			left = &ast.BinaryExpr{Op: t.Text, L: left, R: right}
		case t.Type == lexer.Keyword && t.Text == "IS":
			p.next()
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			left = &ast.IsNullExpr{X: left, Not: not}
		case t.Type == lexer.Keyword && t.Text == "IN":
			p.next()
			if sub, ok, err := p.maybeSubquery(); err != nil {
				return nil, err
			} else if ok {
				left = &ast.InSubquery{X: left, Select: sub, Line: t.Line, Col: t.Col}
				continue
			}
			list, err := p.parseExprList()
			if err != nil {
				return nil, err
			}
			left = &ast.InExpr{X: left, List: list}
		case t.Type == lexer.Keyword && t.Text == "BETWEEN":
			p.next()
			lo, err := p.parseConcat()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseConcat()
			if err != nil {
				return nil, err
			}
			left = &ast.BetweenExpr{X: left, Lo: lo, Hi: hi}
		case t.Type == lexer.Keyword && t.Text == "LIKE":
			p.next()
			pat, err := p.parseConcat()
			if err != nil {
				return nil, err
			}
			left = &ast.LikeExpr{X: left, Pattern: pat}
		case t.Type == lexer.Keyword && t.Text == "NOT":
			// NOT IN / NOT BETWEEN / NOT LIKE
			switch p.peekAt(1).Text {
			case "IN":
				p.next()
				p.next()
				if sub, ok, err := p.maybeSubquery(); err != nil {
					return nil, err
				} else if ok {
					left = &ast.InSubquery{X: left, Select: sub, Not: true, Line: t.Line, Col: t.Col}
					continue
				}
				list, err := p.parseExprList()
				if err != nil {
					return nil, err
				}
				left = &ast.InExpr{X: left, List: list, Not: true}
			case "BETWEEN":
				p.next()
				p.next()
				lo, err := p.parseConcat()
				if err != nil {
					return nil, err
				}
				if err := p.expectKeyword("AND"); err != nil {
					return nil, err
				}
				hi, err := p.parseConcat()
				if err != nil {
					return nil, err
				}
				left = &ast.BetweenExpr{X: left, Lo: lo, Hi: hi, Not: true}
			case "LIKE":
				p.next()
				p.next()
				pat, err := p.parseConcat()
				if err != nil {
					return nil, err
				}
				left = &ast.LikeExpr{X: left, Pattern: pat, Not: true}
			default:
				return left, nil
			}
		case t.Type == lexer.Keyword && t.Text == "REACHES":
			re, err := p.parseReaches(left)
			if err != nil {
				return nil, err
			}
			left = re
		default:
			return left, nil
		}
	}
}

// parseReaches parses `X REACHES Y OVER edge [alias] EDGE (src, dst)`
// with X already consumed.
func (p *Parser) parseReaches(x ast.Expr) (ast.Expr, error) {
	t := p.next() // REACHES
	y, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("OVER"); err != nil {
		return nil, err
	}
	var edge ast.TableExpr
	if p.peekSymbol("(") {
		sel, err2 := func() (*ast.SelectStmt, error) {
			p.next()
			s, err3 := p.parseSelect()
			if err3 != nil {
				return nil, err3
			}
			if err3 := p.expectSymbol(")"); err3 != nil {
				return nil, err3
			}
			return s, nil
		}()
		if err2 != nil {
			return nil, err2
		}
		edge = &ast.SubqueryRef{Select: sel}
	} else {
		name, err2 := p.expectIdent("edge table name")
		if err2 != nil {
			return nil, err2
		}
		edge = &ast.TableRef{Name: name}
	}
	re := &ast.ReachesExpr{X: x, Y: y, Edge: edge, Line: t.Line, Col: t.Col}
	// Optional tuple variable before EDGE.
	if p.peek().Type == lexer.Ident {
		re.EdgeAlias = p.next().Text
	}
	if err := p.expectKeyword("EDGE"); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	src, err := p.expectIdent("source attribute")
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(","); err != nil {
		return nil, err
	}
	dst, err := p.expectIdent("destination attribute")
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	re.Src, re.Dst = src, dst
	return re, nil
}

// maybeSubquery consumes `( SELECT ... )` if the lookahead matches.
func (p *Parser) maybeSubquery() (*ast.SelectStmt, bool, error) {
	if !p.peekSymbol("(") || (p.peekAt(1).Text != "SELECT" && p.peekAt(1).Text != "WITH") {
		return nil, false, nil
	}
	p.next()
	sel, err := p.parseSelect()
	if err != nil {
		return nil, false, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, false, err
	}
	return sel, true, nil
}

func (p *Parser) parseExprList() ([]ast.Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var list []ast.Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return list, nil
}

func isCompareOp(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *Parser) parseConcat() (ast.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for p.peekSymbol("||") {
		p.next()
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		left = &ast.BinaryExpr{Op: "||", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAdditive() (ast.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.peekSymbol("+") || p.peekSymbol("-") {
		op := p.next().Text
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &ast.BinaryExpr{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseMultiplicative() (ast.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peekSymbol("*") || p.peekSymbol("/") || p.peekSymbol("%") {
		op := p.next().Text
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &ast.BinaryExpr{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseUnary() (ast.Expr, error) {
	if p.peekSymbol("-") || p.peekSymbol("+") {
		op := p.next().Text
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if op == "+" {
			return x, nil
		}
		return &ast.UnaryExpr{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (ast.Expr, error) {
	t := p.peek()
	switch t.Type {
	case lexer.Number:
		p.next()
		isFloat := strings.ContainsAny(t.Text, ".eE")
		return &ast.NumberLit{Text: t.Text, IsFloat: isFloat}, nil
	case lexer.String:
		p.next()
		return &ast.StringLit{Val: t.Text}, nil
	case lexer.Param:
		p.next()
		idx := p.params
		p.params++
		return &ast.ParamExpr{Index: idx}, nil
	case lexer.Keyword:
		switch t.Text {
		case "TRUE":
			p.next()
			return &ast.BoolLit{Val: true}, nil
		case "FALSE":
			p.next()
			return &ast.BoolLit{Val: false}, nil
		case "NULL":
			p.next()
			return &ast.NullLit{}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		case "CHEAPEST":
			return p.parseCheapestSum()
		case "DATE":
			// DATE 'yyyy-mm-dd' literal syntax.
			if p.peekAt(1).Type == lexer.String {
				p.next()
				lit := p.next()
				return &ast.CastExpr{X: &ast.StringLit{Val: lit.Text}, TypeName: "DATE"}, nil
			}
		case "EXISTS":
			p.next()
			sub, ok, err := p.maybeSubquery()
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, p.errorf("expected a subquery after EXISTS")
			}
			return &ast.ExistsExpr{Select: sub, Line: t.Line, Col: t.Col}, nil
		}
		return nil, p.errorf("unexpected keyword %s in expression", t.Text)
	case lexer.Ident:
		// Function call?
		if p.peekAt(1).Text == "(" {
			return p.parseFuncCall()
		}
		return p.parseIdent()
	case lexer.Symbol:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected %s in expression", t)
}

func (p *Parser) parseIdent() (ast.Expr, error) {
	t := p.next()
	id := &ast.Ident{Parts: []string{t.Text}, Line: t.Line, Col: t.Col}
	// After a dot, keywords are demoted to plain identifiers so that
	// soft names like r.ordinality or e.edge resolve (name lookup is
	// case-insensitive).
	for p.peekSymbol(".") && (p.peekAt(1).Type == lexer.Ident || p.peekAt(1).Type == lexer.Keyword) {
		p.next()
		id.Parts = append(id.Parts, p.next().Text)
	}
	if len(id.Parts) > 2 {
		return nil, p.errorf("identifier %s has too many qualifiers", id)
	}
	return id, nil
}

func (p *Parser) parseFuncCall() (ast.Expr, error) {
	t := p.next() // name
	p.next()      // (
	fc := &ast.FuncCall{Name: strings.ToUpper(t.Text), Line: t.Line, Col: t.Col}
	if p.peekSymbol("*") {
		p.next()
		fc.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.acceptKeyword("DISTINCT") {
		fc.Distinct = true
	}
	if !p.peekSymbol(")") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.Args = append(fc.Args, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *Parser) parseCase() (ast.Expr, error) {
	p.next() // CASE
	ce := &ast.CaseExpr{}
	if !p.peekKeyword("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.acceptKeyword("WHEN") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		th, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, ast.CaseWhen{When: w, Then: th})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}

func (p *Parser) parseCast() (ast.Expr, error) {
	p.next() // CAST
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	tn, err := p.parseTypeName()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &ast.CastExpr{X: x, TypeName: tn}, nil
}

// parseCheapestSum parses `CHEAPEST SUM([e:] expr)` (§2). SUM arrives
// as an identifier because it is not reserved.
func (p *Parser) parseCheapestSum() (ast.Expr, error) {
	t := p.next() // CHEAPEST
	n := p.peek()
	if n.Type != lexer.Ident || !strings.EqualFold(n.Text, "SUM") {
		return nil, p.errorf("expected SUM after CHEAPEST")
	}
	p.next()
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	cs := &ast.CheapestSum{Line: t.Line, Col: t.Col}
	// Optional `binding:` prefix.
	if p.peek().Type == lexer.Ident && p.peekAt(1).Text == ":" {
		cs.Binding = p.next().Text
		p.next() // :
	}
	w, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	cs.Weight = w
	return cs, nil
}
