package core

import (
	"fmt"
	"strconv"
)

// TagExpr is an integer expression over tag values, used on the right-hand
// side of filter tag assignments ("<k>=<k>%4") and in pattern guards
// ("{<level>} | <level> > 40").  The expression language is C-flavoured:
// integers, tag references <name>, unary - and !, binary + - * / %, the
// comparisons == != < <= > >=, and && / ||.  Booleans are represented as 0/1
// integers, matching the paper's treatment of tags as plain integers.
//
// An expression is a tree of this package's four node types, built by the
// parser (ParseTagExpr, or the guard of a parsed pattern or filter).  Nothing
// walks the tree per record: whoever evaluates one compiles it against the
// shape of the records in front of it (compileTagExpr) and keeps the program
// with that shape's other slot programs (prog.go).  The interface carries what
// callers outside need — the tags referenced and the rendering.
type TagExpr interface {
	// TagRefs appends the tag names referenced by the expression.
	TagRefs(dst []string) []string
	String() string
}

// EvalError reports a failed tag-expression evaluation.
type EvalError struct {
	Expr string
	Msg  string
}

func (e *EvalError) Error() string {
	return fmt.Sprintf("core: cannot evaluate %q: %s", e.Expr, e.Msg)
}

type intLit int

func (e intLit) TagRefs(dst []string) []string { return dst }
func (e intLit) String() string                { return strconv.Itoa(int(e)) }

// tagRef is a tag reference: the name and, interned where the expression is
// parsed, the id its slot is found by when the expression is compiled.
type tagRef struct {
	name string
	id   labelID
}

func (e tagRef) TagRefs(dst []string) []string { return append(dst, e.name) }
func (e tagRef) String() string                { return "<" + e.name + ">" }

type unaryExpr struct {
	op byte // '-' or '!'
	x  TagExpr
}

func (e *unaryExpr) TagRefs(dst []string) []string { return e.x.TagRefs(dst) }
func (e *unaryExpr) String() string                { return string(e.op) + e.x.String() }

// An operator is one byte, the kind of its token, which the parser's precedence
// table and the program's instructions share.
type binExpr struct {
	op   TokKind
	x, y TagExpr
}

func (e *binExpr) TagRefs(dst []string) []string {
	return e.y.TagRefs(e.x.TagRefs(dst))
}

func (e *binExpr) String() string {
	return "(" + e.x.String() + " " + tokNames[e.op] + " " + e.y.String() + ")"
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ParseTagExpr parses a tag expression from its textual form.
func ParseTagExpr(src string) (TagExpr, error) { return parseAll(src, (*Parser).TagExpr) }

// MustParseTagExpr is ParseTagExpr panicking on error, for literals in code.
func MustParseTagExpr(src string) TagExpr { return must(ParseTagExpr(src)) }

// tagPrec is the binding strength of the binary operators, by token kind, from
// || up to the multiplicative ones (0: not a binary operator); unary operators
// and primaries bind tighter still.
var tagPrec = [TokAndAnd + 1]uint8{TokOrOr: 1, TokAndAnd: 2,
	TokEq: 3, TokNeq: 3, TokLt: 3, TokLe: 3, TokGt: 3, TokGe: 3,
	TokPlus: 4, TokMinus: 4, TokStar: 5, TokSlash: 5, TokPercent: 5}

// TagExpr parses a tag expression.
func (p *Parser) TagExpr() (TagExpr, error) { return p.parseBinary(1) }

// parseBinary parses a left-associative run of the operators of one strength
// over operands of the next.
func (p *Parser) parseBinary(level uint8) (TagExpr, error) {
	if level > 5 {
		return p.parseUnary()
	}
	x, err := p.parseBinary(level + 1)
	for err == nil && tagPrec[p.Peek().Kind] == level {
		e := &binExpr{op: p.Take().Kind, x: x}
		e.y, err = p.parseBinary(level + 1)
		x = e
	}
	if err != nil {
		return nil, err
	}
	return x, nil
}

func (p *Parser) parseUnary() (TagExpr, error) {
	t := p.Peek()
	if t.Kind != TokMinus && t.Kind != TokNot && t.Kind != TokNotNot {
		return p.parsePrimary()
	}
	p.Take()
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	switch t.Kind {
	case TokMinus:
		return &unaryExpr{op: '-', x: x}, nil
	case TokNotNot: // one token to the lexer, two negations here
		x = &unaryExpr{op: '!', x: x}
	}
	return &unaryExpr{op: '!', x: x}, nil
}

func (p *Parser) parsePrimary() (TagExpr, error) {
	switch p.Peek().Kind {
	case TokInt:
		n, err := strconv.Atoi(p.Peek().Text)
		if err != nil {
			return nil, p.Errf("integer %s out of range", p.Peek().Text)
		}
		p.Take()
		return intLit(n), nil
	case TokTagName:
		name := p.Take().Text
		return tagRef{name: name, id: internLabel(name)}, nil
	case TokLParen:
		p.Take()
		x, err := p.TagExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(TokRParen); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, p.Errf("expected integer, tag or '(', found %v", p.Peek().Kind)
}
