// Package parser implements a recursive-descent parser for MiniC.
package parser

import (
	"strconv"

	"dca/internal/ast"
	"dca/internal/lexer"
	"dca/internal/source"
	"dca/internal/token"
)

// Parse parses the given source text into a Program. The returned DiagList
// error is non-nil if any syntax errors were found.
func Parse(name, text string) (*ast.Program, error) {
	file := source.NewFile(name, text)
	diags := &source.DiagList{}
	p := &parser{file: file, lex: lexer.New(file, diags), diags: diags}
	p.tok = p.lex.Next()
	p.ahead = p.lex.Next()
	prog := p.parseProgram()
	diags.Sort()
	return prog, diags.Err()
}

// MustParse parses text and panics on error; intended for workload
// definitions whose sources are compiled into the binary.
func MustParse(name, text string) *ast.Program {
	prog, err := Parse(name, text)
	if err != nil {
		panic("parser.MustParse(" + name + "): " + err.Error())
	}
	return prog
}

// parser pulls tokens from the lexer as it goes: it holds the current
// token and one of lookahead, which is all the grammar reads. The lexer
// reports its errors as it scans, so a token's lexical error is recorded
// before any parse error at that token; Parse sorts them by offset.
type parser struct {
	file  *source.File
	lex   *lexer.Lexer
	tok   token.Token // current token
	ahead token.Token // the token after it
	diags *source.DiagList
}

func (p *parser) cur() token.Token  { return p.tok }
func (p *parser) next() token.Token { t := p.tok; p.advance(); return t }

// advance moves to the next token; the first EOF is the last token.
func (p *parser) advance() {
	if p.tok.Kind == token.EOF {
		return
	}
	p.tok = p.ahead
	if p.ahead.Kind != token.EOF {
		p.ahead = p.lex.Next()
	}
}

func (p *parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(k token.Kind) token.Token {
	t := p.cur()
	if t.Kind != k {
		p.errorf("expected %s, found %s", k, t)
		return token.Token{Kind: k, Pos: t.Pos}
	}
	p.advance()
	return t
}

func (p *parser) errorf(format string, args ...any) {
	p.diags.Add(p.file.Name, p.cur().Pos, format, args...)
}

// sync skips tokens until a likely statement/declaration boundary.
func (p *parser) sync(stop ...token.Kind) {
	for !p.at(token.EOF) {
		k := p.cur().Kind
		for _, s := range stop {
			if k == s {
				return
			}
		}
		p.advance()
	}
}

func (p *parser) parseProgram() *ast.Program {
	prog := &ast.Program{File: p.file}
	for !p.at(token.EOF) {
		switch p.cur().Kind {
		case token.KwStruct:
			prog.Structs = append(prog.Structs, p.parseStruct())
		case token.KwFunc:
			prog.Funcs = append(prog.Funcs, p.parseFunc())
		default:
			p.errorf("expected 'struct' or 'func' at top level, found %s", p.cur())
			p.sync(token.KwStruct, token.KwFunc)
		}
	}
	return prog
}

func (p *parser) parseStruct() *ast.StructDecl {
	kw := p.expect(token.KwStruct)
	name := p.expect(token.IDENT)
	d := &ast.StructDecl{KwPos: kw.Pos, Name: name.Text}
	p.expect(token.LBRACE)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		fname := p.expect(token.IDENT)
		ftype := p.parseType()
		p.expect(token.SEMICOLON)
		d.Fields = append(d.Fields, ast.Field{NamePos: fname.Pos, Name: fname.Text, Type: ftype})
	}
	p.expect(token.RBRACE)
	return d
}

func (p *parser) parseFunc() *ast.FuncDecl {
	kw := p.expect(token.KwFunc)
	name := p.expect(token.IDENT)
	d := &ast.FuncDecl{KwPos: kw.Pos, Name: name.Text}
	p.expect(token.LPAREN)
	for !p.at(token.RPAREN) && !p.at(token.EOF) {
		pname := p.expect(token.IDENT)
		ptype := p.parseType()
		d.Params = append(d.Params, ast.Field{NamePos: pname.Pos, Name: pname.Text, Type: ptype})
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	if !p.at(token.LBRACE) {
		d.Ret = p.parseType()
	}
	d.Body = p.parseBlock()
	return d
}

func (p *parser) parseType() ast.Type {
	t := p.cur()
	switch {
	case t.Kind.IsTypeKeyword():
		p.advance()
		return &ast.NamedType{NamePos: t.Pos, Name: t.Kind.String()}
	case t.Kind == token.IDENT:
		p.advance()
		return &ast.NamedType{NamePos: t.Pos, Name: t.Text}
	case t.Kind == token.STAR:
		p.advance()
		return &ast.PointerType{StarPos: t.Pos, Elem: p.parseType()}
	case t.Kind == token.LBRACKET:
		p.advance()
		p.expect(token.RBRACKET)
		return &ast.ArrayType{BrackPos: t.Pos, Elem: p.parseType()}
	}
	p.errorf("expected type, found %s", t)
	p.advance()
	return &ast.NamedType{NamePos: t.Pos, Name: "int"}
}

func (p *parser) parseBlock() *ast.BlockStmt {
	lb := p.expect(token.LBRACE)
	b := &ast.BlockStmt{LBrace: lb.Pos}
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		b.Stmts = append(b.Stmts, p.parseStmt())
	}
	p.expect(token.RBRACE)
	return b
}

func (p *parser) parseStmt() ast.Stmt {
	t := p.cur()
	switch t.Kind {
	case token.KwVar:
		return p.parseVarDecl()
	case token.KwIf:
		return p.parseIf()
	case token.KwWhile:
		p.advance()
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		body := p.parseBlock()
		return &ast.WhileStmt{KwPos: t.Pos, Cond: cond, Body: body}
	case token.KwFor:
		return p.parseFor()
	case token.KwReturn:
		p.advance()
		var val ast.Expr
		if !p.at(token.SEMICOLON) {
			val = p.parseExpr()
		}
		p.expect(token.SEMICOLON)
		return &ast.ReturnStmt{KwPos: t.Pos, Val: val}
	case token.KwBreak:
		p.advance()
		p.expect(token.SEMICOLON)
		return &ast.BreakStmt{KwPos: t.Pos}
	case token.KwContinue:
		p.advance()
		p.expect(token.SEMICOLON)
		return &ast.ContinueStmt{KwPos: t.Pos}
	case token.KwPrint:
		p.advance()
		p.expect(token.LPAREN)
		var args []ast.Expr
		for !p.at(token.RPAREN) && !p.at(token.EOF) {
			args = append(args, p.parseExpr())
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RPAREN)
		p.expect(token.SEMICOLON)
		return &ast.PrintStmt{KwPos: t.Pos, Args: args}
	case token.LBRACE:
		return p.parseBlock()
	}
	s := p.parseSimpleStmt()
	p.expect(token.SEMICOLON)
	return s
}

func (p *parser) parseVarDecl() ast.Stmt {
	kw := p.expect(token.KwVar)
	name := p.expect(token.IDENT)
	typ := p.parseType()
	var init ast.Expr
	if p.accept(token.ASSIGN) {
		init = p.parseExpr()
	}
	p.expect(token.SEMICOLON)
	return &ast.VarDecl{KwPos: kw.Pos, Name: name.Text, Type: typ, Init: init}
}

func (p *parser) parseIf() ast.Stmt {
	kw := p.expect(token.KwIf)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	then := p.parseBlock()
	var els ast.Stmt
	if p.accept(token.KwElse) {
		if p.at(token.KwIf) {
			els = p.parseIf()
		} else {
			els = p.parseBlock()
		}
	}
	return &ast.IfStmt{KwPos: kw.Pos, Cond: cond, Then: then, Else: els}
}

func (p *parser) parseFor() ast.Stmt {
	kw := p.expect(token.KwFor)
	p.expect(token.LPAREN)
	var init ast.Stmt
	if !p.at(token.SEMICOLON) {
		if p.at(token.KwVar) {
			init = p.parseVarDecl() // consumes the ';'
		} else {
			init = p.parseSimpleStmt()
			p.expect(token.SEMICOLON)
		}
	} else {
		p.expect(token.SEMICOLON)
	}
	var cond ast.Expr
	if !p.at(token.SEMICOLON) {
		cond = p.parseExpr()
	}
	p.expect(token.SEMICOLON)
	var post ast.Stmt
	if !p.at(token.RPAREN) {
		post = p.parseSimpleStmt()
	}
	p.expect(token.RPAREN)
	body := p.parseBlock()
	return &ast.ForStmt{KwPos: kw.Pos, Init: init, Cond: cond, Post: post, Body: body}
}

// parseSimpleStmt parses an assignment, inc/dec or expression statement
// (without the trailing semicolon).
func (p *parser) parseSimpleStmt() ast.Stmt {
	lhs := p.parseExpr()
	t := p.cur()
	switch {
	case t.Kind.IsAssignOp():
		p.advance()
		rhs := p.parseExpr()
		return &ast.AssignStmt{LHS: lhs, Op: t.Kind.String(), RHS: rhs}
	case t.Kind == token.PLUSPLUS:
		p.advance()
		return &ast.IncDecStmt{LHS: lhs}
	case t.Kind == token.MINUSMINUS:
		p.advance()
		return &ast.IncDecStmt{LHS: lhs, Dec: true}
	}
	return &ast.ExprStmt{X: lhs}
}

// Binary operator precedence; higher binds tighter.
func precedence(k token.Kind) int {
	switch k {
	case token.OROR:
		return 1
	case token.ANDAND:
		return 2
	case token.EQ, token.NEQ:
		return 3
	case token.LT, token.LEQ, token.GT, token.GEQ:
		return 4
	case token.PLUS, token.MINUS, token.PIPE, token.CARET:
		return 5
	case token.STAR, token.SLASH, token.PERCENT, token.SHL, token.SHR, token.AMP:
		return 6
	}
	return 0
}

func (p *parser) parseExpr() ast.Expr { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) ast.Expr {
	x := p.parseUnary()
	for {
		t := p.cur()
		prec := precedence(t.Kind)
		if prec < minPrec {
			return x
		}
		p.advance()
		y := p.parseBinary(prec + 1)
		x = &ast.BinaryExpr{X: x, Op: t.Kind.String(), Y: y}
	}
}

func (p *parser) parseUnary() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.MINUS:
		p.advance()
		return &ast.UnaryExpr{OpPos: t.Pos, Op: "-", X: p.parseUnary()}
	case token.NOT:
		p.advance()
		return &ast.UnaryExpr{OpPos: t.Pos, Op: "!", X: p.parseUnary()}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		switch p.cur().Kind {
		case token.LBRACKET:
			p.advance()
			idx := p.parseExpr()
			p.expect(token.RBRACKET)
			x = &ast.IndexExpr{X: x, Index: idx}
		case token.ARROW, token.DOT:
			p.advance()
			name := p.expect(token.IDENT)
			x = &ast.FieldExpr{X: x, Name: name.Text}
		default:
			return x
		}
	}
}

func (p *parser) parsePrimary() ast.Expr {
	t := p.cur()
	// Type keywords in expression position are conversion builtins:
	// float(x), int(x).
	if t.Kind.IsTypeKeyword() && p.ahead.Kind == token.LPAREN {
		p.advance()
		p.advance()
		call := &ast.CallExpr{Fn: &ast.Ident{NamePos: t.Pos, Name: t.Kind.String()}}
		for !p.at(token.RPAREN) && !p.at(token.EOF) {
			call.Args = append(call.Args, p.parseExpr())
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RPAREN)
		return call
	}
	switch t.Kind {
	case token.IDENT:
		p.advance()
		id := &ast.Ident{NamePos: t.Pos, Name: t.Text}
		if p.at(token.LPAREN) {
			p.advance()
			call := &ast.CallExpr{Fn: id}
			for !p.at(token.RPAREN) && !p.at(token.EOF) {
				call.Args = append(call.Args, p.parseExpr())
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.expect(token.RPAREN)
			return call
		}
		return id
	case token.INT:
		p.advance()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			p.diags.Add(p.file.Name, t.Pos, "invalid integer literal %q", t.Text)
		}
		return &ast.IntLit{LitPos: t.Pos, Val: v}
	case token.FLOAT:
		p.advance()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			p.diags.Add(p.file.Name, t.Pos, "invalid float literal %q", t.Text)
		}
		return &ast.FloatLit{LitPos: t.Pos, Val: v}
	case token.STRING:
		p.advance()
		return &ast.StringLit{LitPos: t.Pos, Val: t.Text}
	case token.KwTrue:
		p.advance()
		return &ast.BoolLit{LitPos: t.Pos, Val: true}
	case token.KwFalse:
		p.advance()
		return &ast.BoolLit{LitPos: t.Pos, Val: false}
	case token.KwNil:
		p.advance()
		return &ast.NilLit{LitPos: t.Pos}
	case token.KwNew:
		p.advance()
		if p.accept(token.LBRACKET) {
			n := p.parseExpr()
			p.expect(token.RBRACKET)
			elem := p.parseType()
			return &ast.NewExpr{KwPos: t.Pos, Type: elem, Len: n}
		}
		return &ast.NewExpr{KwPos: t.Pos, Type: p.parseType()}
	case token.LPAREN:
		p.advance()
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return x
	}
	p.errorf("expected expression, found %s", t)
	p.advance()
	return &ast.IntLit{LitPos: t.Pos}
}
