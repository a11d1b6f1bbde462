// Package lexer turns MiniC source text into a stream of tokens.
package lexer

import (
	"unicode/utf8"

	"dca/internal/source"
	"dca/internal/token"
)

// Lexer scans a source file.
type Lexer struct {
	file  *source.File
	src   string
	pos   int
	diags *source.DiagList
}

// New creates a Lexer over the given file, reporting errors into diags.
func New(file *source.File, diags *source.DiagList) *Lexer {
	return &Lexer{file: file, src: file.Text, diags: diags}
}

func (l *Lexer) errorf(off int, format string, args ...any) {
	l.diags.Add(l.file.Name, l.file.PosFor(off), format, args...)
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.pos++
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos
			l.pos += 2
			closed := false
			for l.pos+1 < len(l.src) {
				if l.src[l.pos] == '*' && l.src[l.pos+1] == '/' {
					l.pos += 2
					closed = true
					break
				}
				l.pos++
			}
			if !closed {
				l.pos = len(l.src)
				l.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next scans and returns the next token.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	start := l.pos
	pos := l.file.PosFor(start)
	if l.pos >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: pos}
	}
	c := l.src[l.pos]
	switch {
	case isLetter(c):
		for l.pos < len(l.src) && (isLetter(l.src[l.pos]) || isDigit(l.src[l.pos])) {
			l.pos++
		}
		text := l.src[start:l.pos]
		if kw, ok := token.Keywords[text]; ok {
			return token.Token{Kind: kw, Text: text, Pos: pos}
		}
		return token.Token{Kind: token.IDENT, Text: text, Pos: pos}
	case isDigit(c):
		return l.scanNumber(start, pos)
	case c == '"':
		return l.scanString(start, pos)
	}
	// Operators.
	two := func(k token.Kind) token.Token {
		l.pos += 2
		return token.Token{Kind: k, Text: l.src[start : start+2], Pos: pos}
	}
	one := func(k token.Kind) token.Token {
		l.pos++
		return token.Token{Kind: k, Text: l.src[start : start+1], Pos: pos}
	}
	n := l.peek2()
	switch c {
	case '+':
		if n == '+' {
			return two(token.PLUSPLUS)
		}
		if n == '=' {
			return two(token.PLUSEQ)
		}
		return one(token.PLUS)
	case '-':
		if n == '-' {
			return two(token.MINUSMINUS)
		}
		if n == '=' {
			return two(token.MINUSEQ)
		}
		if n == '>' {
			return two(token.ARROW)
		}
		return one(token.MINUS)
	case '*':
		if n == '=' {
			return two(token.STAREQ)
		}
		return one(token.STAR)
	case '/':
		if n == '=' {
			return two(token.SLASHEQ)
		}
		return one(token.SLASH)
	case '%':
		if n == '=' {
			return two(token.PERCENTEQ)
		}
		return one(token.PERCENT)
	case '=':
		if n == '=' {
			return two(token.EQ)
		}
		return one(token.ASSIGN)
	case '!':
		if n == '=' {
			return two(token.NEQ)
		}
		return one(token.NOT)
	case '<':
		if n == '=' {
			return two(token.LEQ)
		}
		if n == '<' {
			return two(token.SHL)
		}
		return one(token.LT)
	case '>':
		if n == '=' {
			return two(token.GEQ)
		}
		if n == '>' {
			return two(token.SHR)
		}
		return one(token.GT)
	case '&':
		if n == '&' {
			return two(token.ANDAND)
		}
		return one(token.AMP)
	case '|':
		if n == '|' {
			return two(token.OROR)
		}
		return one(token.PIPE)
	case '^':
		return one(token.CARET)
	case '(':
		return one(token.LPAREN)
	case ')':
		return one(token.RPAREN)
	case '{':
		return one(token.LBRACE)
	case '}':
		return one(token.RBRACE)
	case '[':
		return one(token.LBRACKET)
	case ']':
		return one(token.RBRACKET)
	case ',':
		return one(token.COMMA)
	case ';':
		return one(token.SEMICOLON)
	case '.':
		return one(token.DOT)
	case ':':
		return one(token.COLON)
	}
	// One illegal character, however many bytes it spans; a byte that is
	// not valid UTF-8 is one character of its own.
	_, w := utf8.DecodeRuneInString(l.src[l.pos:])
	l.pos += w
	text := l.src[start:l.pos]
	l.errorf(start, "illegal character %q", text)
	return token.Token{Kind: token.ILLEGAL, Text: text, Pos: pos}
}

func (l *Lexer) scanNumber(start int, pos source.Pos) token.Token {
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	isFloat := false
	if l.peek() == '.' && isDigit(l.peek2()) {
		isFloat = true
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	if c := l.peek(); c == 'e' || c == 'E' {
		save := l.pos
		l.pos++
		if c := l.peek(); c == '+' || c == '-' {
			l.pos++
		}
		if isDigit(l.peek()) {
			isFloat = true
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		} else {
			l.pos = save
		}
	}
	kind := token.INT
	if isFloat {
		kind = token.FLOAT
	}
	return token.Token{Kind: kind, Text: l.src[start:l.pos], Pos: pos}
}

func (l *Lexer) scanString(start int, pos source.Pos) token.Token {
	l.pos++ // opening quote
	var buf []byte
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '"' {
			l.pos++
			return token.Token{Kind: token.STRING, Text: string(buf), Pos: pos}
		}
		if c == '\n' {
			break
		}
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos++
			switch l.src[l.pos] {
			case 'n':
				buf = append(buf, '\n')
			case 't':
				buf = append(buf, '\t')
			case '\\':
				buf = append(buf, '\\')
			case '"':
				buf = append(buf, '"')
			default:
				l.errorf(l.pos, "unknown escape \\%c", l.src[l.pos])
			}
			l.pos++
			continue
		}
		buf = append(buf, c)
		l.pos++
	}
	l.errorf(start, "unterminated string literal")
	return token.Token{Kind: token.ILLEGAL, Text: string(buf), Pos: pos}
}
