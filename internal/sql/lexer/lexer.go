// Package lexer tokenizes the engine's SQL dialect, including the
// keywords the paper adds to the language: REACHES, OVER, EDGE,
// CHEAPEST and UNNEST (§3.1 "the terms ... are now treated as keywords
// in the language").
//
// The tokenizer is a zero-allocation byte scanner: it sits on the hot
// path of every uncached statement (parse, cache admission sniffing,
// fingerprinting), so Next never allocates on the common path.
// Token.Text is a view — a substring sharing the input's
// backing array — for identifiers and numbers, a canonical interned
// constant for keywords and symbols, and only escape-carrying string
// literals ('it”s') or quoted identifiers ("a""b") pay for an
// unescaped copy. Character classes are 256-entry tables instead of
// per-byte unicode calls, and keywords resolve through a
// length-bucketed table with a case-insensitive ASCII fold, so an
// all-ASCII statement tokenizes without touching the heap at all
// (locked down by a testing.AllocsPerRun assertion and a differential
// fuzz target against the previous allocating lexer).
package lexer

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenType classifies lexical tokens.
type TokenType uint8

const (
	// EOF marks the end of the input.
	EOF TokenType = iota
	// Ident is an identifier (possibly double-quoted).
	Ident
	// Number is an integer or decimal literal.
	Number
	// String is a single-quoted string literal.
	String
	// Param is the positional host parameter '?'.
	Param
	// Keyword is a reserved word; Tok.Text is its upper-case form.
	Keyword
	// Symbol is an operator or punctuation token.
	Symbol
)

// Token is one lexical token with its source position.
type Token struct {
	Type TokenType
	// Text is the token text. Keywords are upper-cased; quoted
	// identifiers are unquoted; string literals are unescaped. For
	// identifiers, numbers and escape-free strings it is a view into
	// the source, not a copy.
	Text string
	// Pos is the byte offset in the input, Line/Col are 1-based.
	Pos, Line, Col int
}

// String renders the token for error messages.
func (t Token) String() string {
	switch t.Type {
	case EOF:
		return "end of input"
	case String:
		return fmt.Sprintf("'%s'", t.Text)
	case Param:
		return "?"
	default:
		return t.Text
	}
}

// keywordList is the reserved-word set in canonical (upper-case) form.
// The five terms the paper adds are grouped at the end with the type
// names.
var keywordList = []string{
	"SELECT", "FROM", "WHERE", "GROUP", "BY",
	"HAVING", "ORDER", "LIMIT", "OFFSET", "AS",
	"AND", "OR", "NOT", "IN", "IS", "NULL",
	"LIKE", "BETWEEN", "CASE", "WHEN", "THEN",
	"ELSE", "END", "CAST", "CREATE", "TABLE",
	"INSERT", "INTO", "VALUES", "WITH", "JOIN",
	"LEFT", "RIGHT", "FULL", "INNER", "OUTER",
	"CROSS", "ON", "USING", "DISTINCT", "ALL",
	"UNION", "EXCEPT", "INTERSECT", "ASC", "DESC",
	"TRUE", "FALSE", "EXISTS", "DROP", "DELETE",
	"PRIMARY", "KEY", "DEFAULT", "LATERAL",
	"ORDINALITY", "NULLS", "FIRST", "LAST",
	"SET", "EXPLAIN", "ANALYZE",
	// Graph extension keywords (paper §2, §3.1):
	"REACHES", "OVER", "EDGE", "CHEAPEST", "UNNEST",
	// Type names:
	"INT", "INTEGER", "BIGINT", "SMALLINT",
	"DOUBLE", "FLOAT", "REAL", "PRECISION",
	"VARCHAR", "TEXT", "CHAR", "STRING",
	"BOOLEAN", "BOOL", "DATE",
}

const maxKeywordLen = 10 // ORDINALITY

// kwBuckets is the length-bucketed keyword table: bucket n holds the
// canonical strings of every n-byte keyword, so a lookup compares only
// same-length candidates with a case-insensitive ASCII fold and
// returns the interned canonical form — no upper-casing copy.
var kwBuckets [maxKeywordLen + 1][]string

// kwCanon maps the exact upper-case spelling to the canonical interned
// string; the non-ASCII slow path goes through it.
var kwCanon = make(map[string]string, len(keywordList))

// identStartTable / identPartTable are byte-class tables mirroring the
// previous per-byte predicates exactly (bytes ≥ 0x80 classify by their
// Latin-1 code point, as rune(byte) always has).
var identStartTable, identPartTable [256]bool

// symbolTable interns every single-byte symbol's string form.
var symbolTable [256]string

func init() {
	for _, kw := range keywordList {
		kwBuckets[len(kw)] = append(kwBuckets[len(kw)], kw)
		kwCanon[kw] = kw
	}
	for c := 0; c < 256; c++ {
		ch := byte(c)
		identStartTable[c] = ch == '_' || unicode.IsLetter(rune(ch))
		identPartTable[c] = ch == '_' || ch == '$' || unicode.IsLetter(rune(ch)) || isDigit(ch)
	}
	for _, ch := range []byte{'+', '-', '*', '/', '%', '=', '<', '>', '(', ')', ',', '.', ';', ':'} {
		symbolTable[ch] = string(ch)
	}
}

// asciiKeyword resolves an all-ASCII word against the length bucket,
// returning the canonical upper-case form ("" when not a keyword).
func asciiKeyword(word string) string {
	if len(word) < 2 || len(word) > maxKeywordLen {
		return ""
	}
next:
	for _, kw := range kwBuckets[len(word)] {
		// Keywords are A-Z only, so folding bit 5 cannot alias a
		// non-letter byte onto a letter.
		if word[0]|0x20 != kw[0]|0x20 {
			continue
		}
		for i := 1; i < len(word); i++ {
			if word[i]|0x20 != kw[i]|0x20 {
				continue next
			}
		}
		return kw
	}
	return ""
}

// keywordOf returns the canonical form of word if it is reserved, ""
// otherwise. Words with non-ASCII bytes take the allocating ToUpper
// path so Unicode case folding (ſ → S) classifies exactly as before.
func keywordOf(word string) string {
	for i := 0; i < len(word); i++ {
		if word[i] >= 0x80 {
			return kwCanon[strings.ToUpper(word)]
		}
	}
	return asciiKeyword(word)
}

// Lexer scans SQL text into tokens. The zero value is unusable; obtain
// one with New, or embed a Lexer and (re)initialize it with Reset —
// Reset lets a caller tokenize many statements without allocating a
// new Lexer per statement.
type Lexer struct {
	src string
	pos int
	// line is 1-based; lineStart is the byte offset of the current
	// line's first character, so a column is pos-lineStart+1 without
	// per-byte bookkeeping.
	line      int
	lineStart int
}

// New returns a lexer over src.
func New(src string) *Lexer {
	l := &Lexer{}
	l.Reset(src)
	return l
}

// Reset re-points the lexer at a new input, reusing the receiver.
func (l *Lexer) Reset(src string) {
	l.src = src
	l.pos = 0
	l.line = 1
	l.lineStart = 0
}

// Offset reports the current scan position: after Next returns a
// token, Offset is the byte offset one past that token's source text.
// The fingerprint normalizer uses it to splice literal spans.
func (l *Lexer) Offset() int { return l.pos }

// Error is a lexical error with position information.
type Error struct {
	Msg       string
	Line, Col int
}

func (e *Error) Error() string {
	return fmt.Sprintf("syntax error at line %d col %d: %s", e.Line, e.Col, e.Msg)
}

func (l *Lexer) errorf(format string, args ...interface{}) error {
	return &Error{Msg: fmt.Sprintf(format, args...), Line: l.line, Col: l.pos - l.lineStart + 1}
}

func (l *Lexer) col() int { return l.pos - l.lineStart + 1 }

// newline records that the byte at offset nl was a consumed '\n'.
func (l *Lexer) newline(nl int) {
	l.line++
	l.lineStart = nl + 1
}

// skipSpaceAndComments consumes whitespace, -- line comments and
// /* */ block comments.
func (l *Lexer) skipSpaceAndComments() error {
	src := l.src
	for l.pos < len(src) {
		switch ch := src[l.pos]; {
		case ch == ' ' || ch == '\t' || ch == '\r':
			l.pos++
		case ch == '\n':
			l.newline(l.pos)
			l.pos++
		case ch == '-' && l.pos+1 < len(src) && src[l.pos+1] == '-':
			for l.pos < len(src) && src[l.pos] != '\n' {
				l.pos++
			}
		case ch == '/' && l.pos+1 < len(src) && src[l.pos+1] == '*':
			l.pos += 2
			closed := false
			for l.pos < len(src) {
				if src[l.pos] == '*' && l.pos+1 < len(src) && src[l.pos+1] == '/' {
					l.pos += 2
					closed = true
					break
				}
				if src[l.pos] == '\n' {
					l.newline(l.pos)
				}
				l.pos++
			}
			if !closed {
				return l.errorf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	src := l.src
	start, line, col := l.pos, l.line, l.col()
	if l.pos >= len(src) {
		return Token{Type: EOF, Pos: start, Line: line, Col: col}, nil
	}
	mk := func(tt TokenType, text string) Token {
		return Token{Type: tt, Text: text, Pos: start, Line: line, Col: col}
	}
	ch := src[l.pos]
	switch {
	case identStartTable[ch]:
		l.pos++
		for l.pos < len(src) && identPartTable[src[l.pos]] {
			l.pos++
		}
		word := src[start:l.pos]
		if kw := keywordOf(word); kw != "" {
			return mk(Keyword, kw), nil
		}
		return mk(Ident, word), nil
	case ch >= '0' && ch <= '9',
		ch == '.' && l.pos+1 < len(src) && isDigit(src[l.pos+1]):
		return l.lexNumber(start, line, col), nil
	case ch == '\'':
		return l.lexString(start, line, col)
	case ch == '"':
		return l.lexQuotedIdent(start, line, col)
	case ch == '?':
		l.pos++
		return mk(Param, "?"), nil
	}
	// Multi-byte symbols first.
	if l.pos+1 < len(src) {
		two := src[l.pos : l.pos+2]
		switch two {
		case "<=", ">=", "<>", "||":
			l.pos += 2
			return mk(Symbol, two), nil
		case "!=":
			l.pos += 2
			return mk(Symbol, "<>"), nil
		}
	}
	if s := symbolTable[ch]; s != "" {
		l.pos++
		return mk(Symbol, s), nil
	}
	return Token{}, l.errorf("unexpected character %q", string(rune(ch)))
}

func (l *Lexer) lexNumber(start, line, col int) Token {
	src := l.src
	for l.pos < len(src) && isDigit(src[l.pos]) {
		l.pos++
	}
	if l.pos < len(src) && src[l.pos] == '.' {
		switch {
		case l.pos+1 < len(src) && isDigit(src[l.pos+1]):
			l.pos++
			for l.pos < len(src) && isDigit(src[l.pos]) {
				l.pos++
			}
		case l.pos+1 >= len(src) || !identStartTable[src[l.pos+1]]:
			// trailing dot as in "1." — accept
			l.pos++
		}
	}
	if l.pos < len(src) && (src[l.pos] == 'e' || src[l.pos] == 'E') {
		save := l.pos
		l.pos++
		if l.pos < len(src) && (src[l.pos] == '+' || src[l.pos] == '-') {
			l.pos++
		}
		if l.pos >= len(src) || !isDigit(src[l.pos]) {
			l.pos = save // not an exponent after all
		} else {
			for l.pos < len(src) && isDigit(src[l.pos]) {
				l.pos++
			}
		}
	}
	return Token{Type: Number, Text: src[start:l.pos], Pos: start, Line: line, Col: col}
}

// lexString scans a single-quoted literal. Escape-free literals — the
// overwhelming majority — return a view between the quotes; only a
// doubled-quote escape forces an unescaped copy.
func (l *Lexer) lexString(start, line, col int) (Token, error) {
	src := l.src
	l.pos++ // opening quote
	for i := l.pos; i < len(src); i++ {
		switch src[i] {
		case '\n':
			l.newline(i)
		case '\'':
			if i+1 < len(src) && src[i+1] == '\'' {
				// Doubled-quote escape: fall back to the copying scan
				// from the opening quote.
				return l.lexStringSlow(start, line, col, i)
			}
			text := src[l.pos:i]
			l.pos = i + 1
			return Token{Type: String, Text: text, Pos: start, Line: line, Col: col}, nil
		}
	}
	l.pos = len(src)
	return Token{}, l.errorf("unterminated string literal")
}

// lexStringSlow finishes a string literal that contains at least one
// ” escape (first seen at offset esc), building the unescaped text.
func (l *Lexer) lexStringSlow(start, line, col, esc int) (Token, error) {
	src := l.src
	var b strings.Builder
	b.WriteString(src[l.pos:esc])
	i := esc
	for i < len(src) {
		ch := src[i]
		switch ch {
		case '\n':
			l.newline(i)
			b.WriteByte(ch)
			i++
		case '\'':
			if i+1 < len(src) && src[i+1] == '\'' {
				b.WriteByte('\'')
				i += 2
				continue
			}
			l.pos = i + 1
			return Token{Type: String, Text: b.String(), Pos: start, Line: line, Col: col}, nil
		default:
			b.WriteByte(ch)
			i++
		}
	}
	l.pos = len(src)
	return Token{}, l.errorf("unterminated string literal")
}

// lexQuotedIdent mirrors lexString for double-quoted identifiers.
func (l *Lexer) lexQuotedIdent(start, line, col int) (Token, error) {
	src := l.src
	l.pos++ // opening quote
	for i := l.pos; i < len(src); i++ {
		switch src[i] {
		case '\n':
			l.newline(i)
		case '"':
			if i+1 < len(src) && src[i+1] == '"' {
				return l.lexQuotedIdentSlow(start, line, col, i)
			}
			text := src[l.pos:i]
			l.pos = i + 1
			if len(text) == 0 {
				return Token{}, l.errorf("empty quoted identifier")
			}
			return Token{Type: Ident, Text: text, Pos: start, Line: line, Col: col}, nil
		}
	}
	l.pos = len(src)
	return Token{}, l.errorf("unterminated quoted identifier")
}

func (l *Lexer) lexQuotedIdentSlow(start, line, col, esc int) (Token, error) {
	src := l.src
	var b strings.Builder
	b.WriteString(src[l.pos:esc])
	i := esc
	for i < len(src) {
		ch := src[i]
		switch ch {
		case '\n':
			l.newline(i)
			b.WriteByte(ch)
			i++
		case '"':
			if i+1 < len(src) && src[i+1] == '"' {
				b.WriteByte('"')
				i += 2
				continue
			}
			l.pos = i + 1
			// The slow path is only entered on a "" escape, so the text
			// is never empty here.
			return Token{Type: Ident, Text: b.String(), Pos: start, Line: line, Col: col}, nil
		default:
			b.WriteByte(ch)
			i++
		}
	}
	l.pos = len(src)
	return Token{}, l.errorf("unterminated quoted identifier")
}

func isDigit(ch byte) bool { return ch >= '0' && ch <= '9' }

// Tokenize scans the whole input into one slice, for tests and the
// benchmark's lexer layer; the parser reads its tokens statement by
// statement instead (parser.Script). The returned tokens view the
// input string; they stay valid as long as the input does (strings are
// immutable, so effectively always).
func Tokenize(src string) ([]Token, error) {
	var l Lexer
	l.Reset(src)
	// Dotted identifiers make SQL token-dense (~3.3 bytes/token on the
	// corpus); over-estimating slightly keeps Tokenize at exactly one
	// allocation instead of the append-doubling copies that dominated
	// the old profile.
	out := make([]Token, 0, len(src)/3+8)
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Type == EOF {
			return out, nil
		}
	}
}
