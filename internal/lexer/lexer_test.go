package lexer_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"dca/internal/lexer"
	"dca/internal/source"
	"dca/internal/token"
)

// scanAll returns every token l yields, ending with the first EOF.
func scanAll(l *lexer.Lexer) []token.Token {
	var toks []token.Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

func scan(t *testing.T, src string) ([]token.Token, *source.DiagList) {
	t.Helper()
	diags := &source.DiagList{}
	toks := scanAll(lexer.New(source.NewFile("t.mc", src), diags))
	return toks, diags
}

func kinds(toks []token.Token) []token.Kind {
	out := make([]token.Kind, 0, len(toks))
	for _, tk := range toks {
		out = append(out, tk.Kind)
	}
	return out
}

func TestOperators(t *testing.T) {
	toks, diags := scan(t, "+ - * / % = += -= *= /= %= ++ -- == != < > <= >= && || ! & | ^ << >> ( ) { } [ ] , ; . -> :")
	if !diags.Empty() {
		t.Fatalf("diags: %v", diags)
	}
	want := []token.Kind{
		token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT,
		token.ASSIGN, token.PLUSEQ, token.MINUSEQ, token.STAREQ, token.SLASHEQ,
		token.PERCENTEQ, token.PLUSPLUS, token.MINUSMINUS,
		token.EQ, token.NEQ, token.LT, token.GT, token.LEQ, token.GEQ,
		token.ANDAND, token.OROR, token.NOT, token.AMP, token.PIPE, token.CARET,
		token.SHL, token.SHR,
		token.LPAREN, token.RPAREN, token.LBRACE, token.RBRACE,
		token.LBRACKET, token.RBRACKET, token.COMMA, token.SEMICOLON,
		token.DOT, token.ARROW, token.COLON, token.EOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestKeywordsAndIdents(t *testing.T) {
	toks, diags := scan(t, "func struct var if else while for return break continue new nil true false print int float bool string foo _bar x9")
	if !diags.Empty() {
		t.Fatalf("diags: %v", diags)
	}
	got := kinds(toks)
	wantPrefix := []token.Kind{
		token.KwFunc, token.KwStruct, token.KwVar, token.KwIf, token.KwElse,
		token.KwWhile, token.KwFor, token.KwReturn, token.KwBreak,
		token.KwContinue, token.KwNew, token.KwNil, token.KwTrue,
		token.KwFalse, token.KwPrint, token.KwInt, token.KwFloat,
		token.KwBool, token.KwString, token.IDENT, token.IDENT, token.IDENT,
	}
	for i, w := range wantPrefix {
		if got[i] != w {
			t.Errorf("token %d = %s, want %s", i, got[i], w)
		}
	}
}

func TestNumbers(t *testing.T) {
	toks, diags := scan(t, "0 42 3.14 1e6 2.5e-3 7e+2 9.")
	if !diags.Empty() {
		t.Fatalf("diags: %v", diags)
	}
	want := []struct {
		kind token.Kind
		text string
	}{
		{token.INT, "0"}, {token.INT, "42"}, {token.FLOAT, "3.14"},
		{token.FLOAT, "1e6"}, {token.FLOAT, "2.5e-3"}, {token.FLOAT, "7e+2"},
		{token.INT, "9"}, {token.DOT, "."},
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = %v, want %v %q", i, toks[i], w.kind, w.text)
		}
	}
}

func TestStringsAndEscapes(t *testing.T) {
	toks, diags := scan(t, `"hello" "a\nb" "q\"q" "t\tt" "back\\slash"`)
	if !diags.Empty() {
		t.Fatalf("diags: %v", diags)
	}
	want := []string{"hello", "a\nb", `q"q`, "t\tt", `back\slash`}
	for i, w := range want {
		if toks[i].Kind != token.STRING || toks[i].Text != w {
			t.Errorf("string %d = %q (%s), want %q", i, toks[i].Text, toks[i].Kind, w)
		}
	}
}

func TestComments(t *testing.T) {
	toks, diags := scan(t, "a // line comment\nb /* block\ncomment */ c")
	if !diags.Empty() {
		t.Fatalf("diags: %v", diags)
	}
	got := kinds(toks)
	want := []token.Kind{token.IDENT, token.IDENT, token.IDENT, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
}

func TestPositions(t *testing.T) {
	toks, _ := scan(t, "a\n  bb\n")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("bb at %v", toks[1].Pos)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"@", "illegal character"},
		{`"unterminated`, "unterminated string"},
		{"/* open", "unterminated block comment"},
		{`"\q"`, "unknown escape"},
	}
	for _, c := range cases {
		_, diags := scan(t, c.src)
		if diags.Empty() {
			t.Errorf("%q: expected diagnostic containing %q", c.src, c.want)
		}
	}
}

// TestIllegalCharacters: a character the language does not use is one
// ILLEGAL token and one diagnostic however many bytes it spans, and a byte
// that is not valid UTF-8 is reported escaped.
func TestIllegalCharacters(t *testing.T) {
	cases := []struct {
		src   string
		kinds []token.Kind
		diags []string // message at column
	}{
		{"@", []token.Kind{token.ILLEGAL, token.EOF}, []string{`illegal character "@" at 1`}},
		{"é", []token.Kind{token.ILLEGAL, token.EOF}, []string{`illegal character "é" at 1`}},
		{"var é int", []token.Kind{token.KwVar, token.ILLEGAL, token.KwInt, token.EOF},
			[]string{`illegal character "é" at 5`}},
		{"a€b", []token.Kind{token.IDENT, token.ILLEGAL, token.IDENT, token.EOF},
			[]string{`illegal character "€" at 2`}},
		{"x😀;", []token.Kind{token.IDENT, token.ILLEGAL, token.SEMICOLON, token.EOF},
			[]string{`illegal character "😀" at 2`}},
		{"\xff", []token.Kind{token.ILLEGAL, token.EOF}, []string{`illegal character "\xff" at 1`}},
		// A truncated sequence is two invalid bytes.
		{"\xe2\x82", []token.Kind{token.ILLEGAL, token.ILLEGAL, token.EOF},
			[]string{`illegal character "\xe2" at 1`, `illegal character "\x82" at 2`}},
	}
	for _, c := range cases {
		toks, diags := scan(t, c.src)
		if got := kinds(toks); fmt.Sprint(got) != fmt.Sprint(c.kinds) {
			t.Errorf("%q: tokens %v, want %v", c.src, got, c.kinds)
		}
		var got []string
		for _, d := range diags.Diags {
			got = append(got, fmt.Sprintf("%s at %d", d.Msg, d.Pos.Col))
		}
		if fmt.Sprint(got) != fmt.Sprint(c.diags) {
			t.Errorf("%q: diagnostics %q, want %q", c.src, got, c.diags)
		}
	}
}

// TestScanTerminates (property): the lexer always terminates and ends with
// EOF, for arbitrary input bytes.
func TestScanTerminates(t *testing.T) {
	f := func(src string) bool {
		if len(src) > 4096 {
			src = src[:4096]
		}
		diags := &source.DiagList{}
		toks := scanAll(lexer.New(source.NewFile("q.mc", src), diags))
		return len(toks) >= 1 && toks[len(toks)-1].Kind == token.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestOffsetsMonotonic (property): token offsets never decrease.
func TestOffsetsMonotonic(t *testing.T) {
	f := func(src string) bool {
		if len(src) > 2048 {
			src = src[:2048]
		}
		diags := &source.DiagList{}
		toks := scanAll(lexer.New(source.NewFile("q.mc", src), diags))
		last := -1
		for _, tk := range toks[:len(toks)-1] {
			if tk.Pos.Offset < last {
				return false
			}
			last = tk.Pos.Offset
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
