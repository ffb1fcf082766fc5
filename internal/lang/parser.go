// Package lang implements the textual S-Net surface language of the paper:
// box declarations with signatures, net definitions, and network expressions
// over the eight combinators, filters, guarded patterns and synchrocells.
//
//	box computeOpts (board) -> (board, opts);
//	box solveOneLevel (board, opts) -> (board, opts) | (board, <done>);
//
//	net fig1 connect computeOpts .. (solveOneLevel ** {<done>});
//
// Parse produces an AST; Build instantiates it into an internal/core network
// against a registry binding box names to Go implementations (the role the
// SaC compiler plays in the paper).
package lang

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// Pos is a source position (1-based).
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Error is a parse or build failure with position information.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("snet: %s: %s", e.Pos, e.Msg) }

// Parse parses an S-Net program.
//
// Grammar (precedence from loosest to tightest: parallel, serial, postfix):
//
//	program  := (boxdecl | netdecl)*
//	boxdecl  := "box" IDENT signature ";"
//	netdecl  := "net" IDENT [ "{" program "}" ] "connect" expr ";"
//	expr     := serial (("||" | "|") serial)*
//	serial   := postfix (".." postfix)*
//	postfix  := primary ( ("**"|"*") starpat | ("!!"|"!") TAG )*
//	starpat  := variant | "(" pattern ")"
//	primary  := IDENT | "(" expr ")" | filter | synccell
//	synccell := "[|" pattern ("," pattern)+ "|]"
//
// The tokens and the productions signature, variant, pattern (a variant with
// an optional guard) and filter are core.Parser's — the grammar of the Go
// API's strings (core.ParseSignature, ParsePattern, ParseFilter); this
// parser adds only the declarations and the network expressions around them.
func Parse(src string) (*Program, error) {
	prog, err := parse(src)
	var se *core.SyntaxError
	if errors.As(err, &se) {
		line, col := se.LineCol()
		return nil, &Error{Pos: Pos{line, col}, Msg: se.Msg}
	}
	return prog, err
}

func parse(src string) (*Program, error) {
	cur, err := core.NewParser(src)
	if err != nil {
		return nil, err
	}
	p := &parser{cur}
	prog, err := p.parseProgram(false)
	if err != nil {
		return nil, err
	}
	if !p.At(core.TokEOF) {
		return nil, p.Errf("unexpected %v", p.Peek().Kind)
	}
	return prog, nil
}

// MustParse is Parse panicking on error.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	*core.Parser
}

func posOf(t core.Token) Pos { return Pos{t.Line, t.Col} }

func (p *parser) atKeyword(kw string) bool {
	return p.At(core.TokIdent) && p.Peek().Text == kw
}

func (p *parser) parseProgram(nested bool) (*Program, error) {
	prog := &Program{}
	for {
		switch {
		case p.atKeyword("box"):
			bd, err := p.parseBoxDecl()
			if err != nil {
				return nil, err
			}
			prog.Boxes = append(prog.Boxes, bd)
		case p.atKeyword("net"):
			nd, err := p.parseNetDecl()
			if err != nil {
				return nil, err
			}
			prog.Nets = append(prog.Nets, nd)
		default:
			if nested || p.At(core.TokEOF) || p.At(core.TokRBrace) {
				return prog, nil
			}
			return nil, p.Errf("expected 'box' or 'net', found %v", p.Peek().Kind)
		}
	}
}

func (p *parser) parseBoxDecl() (*BoxDecl, error) {
	pos := posOf(p.Take()) // "box"
	name, err := p.Expect(core.TokIdent)
	if err != nil {
		return nil, err
	}
	sig, err := p.Signature()
	if err != nil {
		return nil, err
	}
	p.Accept(core.TokSemi)
	return &BoxDecl{Name: name.Text, Sig: sig, Pos: pos}, nil
}

func (p *parser) parseNetDecl() (*NetDecl, error) {
	pos := posOf(p.Take()) // "net"
	name, err := p.Expect(core.TokIdent)
	if err != nil {
		return nil, err
	}
	nd := &NetDecl{Name: name.Text, Pos: pos}
	if p.Accept(core.TokLBrace) {
		body, err := p.parseProgram(true)
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(core.TokRBrace); err != nil {
			return nil, err
		}
		nd.Body = body
	}
	if !p.atKeyword("connect") {
		return nil, p.Errf("expected 'connect'")
	}
	p.Take()
	expr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	nd.Expr = expr
	p.Accept(core.TokSemi)
	return nd, nil
}

// --- network expressions ---

func (p *parser) parseExpr() (Expr, error) {
	a, err := p.parseSerial()
	if err != nil {
		return nil, err
	}
	for p.At(core.TokOrOr) || p.At(core.TokPipe) {
		op := p.Take()
		b, err := p.parseSerial()
		if err != nil {
			return nil, err
		}
		a = &ParExpr{A: a, B: b, Det: op.Kind == core.TokPipe, At: posOf(op)}
	}
	return a, nil
}

func (p *parser) parseSerial() (Expr, error) {
	a, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	for p.At(core.TokDots) {
		pos := posOf(p.Take())
		b, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		a = &SerialExpr{A: a, B: b, At: pos}
	}
	return a, nil
}

func (p *parser) parsePostfix() (Expr, error) {
	a, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.At(core.TokStarStar) || p.At(core.TokStar):
			op := p.Take()
			pat, err := p.parseStarOperand()
			if err != nil {
				return nil, err
			}
			a = &StarExpr{A: a, Exit: pat, Det: op.Kind == core.TokStar, At: posOf(op)}
		case p.At(core.TokNotNot) || p.At(core.TokNot):
			op := p.Take()
			tag, err := p.Expect(core.TokTagName)
			if err != nil {
				return nil, err
			}
			a = &SplitExpr{A: a, Tag: tag.Text, Det: op.Kind == core.TokNot, At: posOf(op)}
		default:
			return a, nil
		}
	}
}

// parseStarOperand parses the exit pattern of a serial replicator: either a
// bare variant {<done>} or a parenthesised guarded pattern
// ({<level>} | <level> > 40) as the paper writes it — bare, the guard's '|'
// would read as the parallel combinator.
func (p *parser) parseStarOperand() (core.Pattern, error) {
	if p.Accept(core.TokLParen) {
		pat, err := p.Pattern()
		if err != nil {
			return core.Pattern{}, err
		}
		if _, err := p.Expect(core.TokRParen); err != nil {
			return core.Pattern{}, err
		}
		return pat, nil
	}
	v, err := p.Variant()
	if err != nil {
		return core.Pattern{}, err
	}
	return core.Pattern{Variant: v}, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	switch t := p.Peek(); t.Kind {
	case core.TokIdent:
		p.Take()
		return &IdentExpr{Name: t.Text, At: posOf(t)}, nil
	case core.TokLParen:
		p.Take()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(core.TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case core.TokSyncOpen:
		return p.parseSync()
	case core.TokLBrack:
		spec, err := p.Filter()
		if err != nil {
			return nil, err
		}
		return &FilterExpr{Spec: spec, At: posOf(t)}, nil
	}
	return nil, p.Errf("expected box name, filter, synchrocell or '(', found %v", p.Peek().Kind)
}

func (p *parser) parseSync() (Expr, error) {
	pos := posOf(p.Take()) // [|
	var pats []core.Pattern
	for {
		pat, err := p.Pattern()
		if err != nil {
			return nil, err
		}
		pats = append(pats, pat)
		if !p.Accept(core.TokComma) {
			break
		}
	}
	if _, err := p.Expect(core.TokSyncClose); err != nil {
		return nil, err
	}
	if len(pats) < 2 {
		return nil, p.Errf("synchrocell needs at least two patterns")
	}
	return &SyncExpr{Patterns: pats, At: pos}, nil
}
