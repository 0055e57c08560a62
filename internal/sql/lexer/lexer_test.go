package lexer

import (
	"strings"
	"testing"
)

func kinds(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatalf("tokenize %q: %v", src, err)
	}
	return toks
}

func TestKeywordsAndIdents(t *testing.T) {
	toks := kinds(t, "select Foo FROM bar REACHES cheapest unnest edge over")
	want := []struct {
		tt   TokenType
		text string
	}{
		{Keyword, "SELECT"}, {Ident, "Foo"}, {Keyword, "FROM"}, {Ident, "bar"},
		{Keyword, "REACHES"}, {Keyword, "CHEAPEST"}, {Keyword, "UNNEST"},
		{Keyword, "EDGE"}, {Keyword, "OVER"}, {EOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, w := range want {
		if toks[i].Type != w.tt || toks[i].Text != w.text {
			t.Errorf("token %d = (%v, %q), want (%v, %q)", i, toks[i].Type, toks[i].Text, w.tt, w.text)
		}
	}
}

func TestNumbers(t *testing.T) {
	toks := kinds(t, "1 42 3.14 1e6 2.5E-3 0.5")
	wantTexts := []string{"1", "42", "3.14", "1e6", "2.5E-3", "0.5"}
	for i, w := range wantTexts {
		if toks[i].Type != Number || toks[i].Text != w {
			t.Errorf("token %d = (%v, %q), want number %q", i, toks[i].Type, toks[i].Text, w)
		}
	}
}

func TestStringsAndEscapes(t *testing.T) {
	toks := kinds(t, "'hello' 'it''s' ''")
	if toks[0].Text != "hello" || toks[1].Text != "it's" || toks[2].Text != "" {
		t.Fatalf("strings = %q %q %q", toks[0].Text, toks[1].Text, toks[2].Text)
	}
	if _, err := Tokenize("'unterminated"); err == nil {
		t.Fatal("expected error for unterminated string")
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	toks := kinds(t, `"select" "with ""quotes"""`)
	if toks[0].Type != Ident || toks[0].Text != "select" {
		t.Fatalf("quoted keyword = (%v, %q)", toks[0].Type, toks[0].Text)
	}
	if toks[1].Text != `with "quotes"` {
		t.Fatalf("escaped quote = %q", toks[1].Text)
	}
	if _, err := Tokenize(`"unterminated`); err == nil {
		t.Fatal("expected error for unterminated identifier")
	}
	if _, err := Tokenize(`""`); err == nil {
		t.Fatal("expected error for empty identifier")
	}
}

func TestSymbols(t *testing.T) {
	toks := kinds(t, "<= >= <> != || + - * / % ( ) , . ; : = < >")
	want := []string{"<=", ">=", "<>", "<>", "||", "+", "-", "*", "/", "%",
		"(", ")", ",", ".", ";", ":", "=", "<", ">"}
	for i, w := range want {
		if toks[i].Type != Symbol || toks[i].Text != w {
			t.Errorf("symbol %d = %q, want %q", i, toks[i].Text, w)
		}
	}
}

func TestParamsAndComments(t *testing.T) {
	toks := kinds(t, `? -- line comment
		/* block
		   comment */ ?`)
	if toks[0].Type != Param || toks[1].Type != Param || toks[2].Type != EOF {
		t.Fatalf("tokens = %v", toks)
	}
	if _, err := Tokenize("/* unterminated"); err == nil {
		t.Fatal("expected error for unterminated comment")
	}
}

func TestPositions(t *testing.T) {
	toks := kinds(t, "SELECT\n  x")
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Fatalf("SELECT at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Fatalf("x at %d:%d, want 2:3", toks[1].Line, toks[1].Col)
	}
}

func TestUnexpectedCharacter(t *testing.T) {
	_, err := Tokenize("select @")
	if err == nil || !strings.Contains(err.Error(), "unexpected character") {
		t.Fatalf("err = %v", err)
	}
}

func TestTokenString(t *testing.T) {
	if (Token{Type: EOF}).String() != "end of input" {
		t.Fatal("EOF rendering")
	}
	if (Token{Type: String, Text: "x"}).String() != "'x'" {
		t.Fatal("string rendering")
	}
	if (Token{Type: Param}).String() != "?" {
		t.Fatal("param rendering")
	}
}
