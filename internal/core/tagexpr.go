package core

import (
	"fmt"
	"strconv"
	"strings"
)

// TagExpr is an integer expression over tag values, used on the right-hand
// side of filter tag assignments ("<k>=<k>%4") and in pattern guards
// ("{<level>} | <level> > 40").  The expression language is C-flavoured:
// integers, tag references <name>, unary - and !, binary + - * / %, the
// comparisons == != < <= > >=, and && / ||.  Booleans are represented as 0/1
// integers, matching the paper's treatment of tags as plain integers.
//
// An expression is a tree of this package's four node types, built by the
// parser (ParseTagExpr, or the guard of a parsed pattern or filter) and
// evaluated in one place: evalTagRec, over the tag slots of the record a
// guard or filter is looking at.  The interface carries what callers outside
// the evaluator need — the tags referenced and the rendering.
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
// parsed, the id its slot is found by — an integer scan of the record's shape.
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

type binExpr struct {
	op   string
	x, y TagExpr
}

// apply evaluates the operators that do not short-circuit over computed
// operands.
func (e *binExpr) apply(a, b int) (int, error) {
	switch e.op {
	case "+":
		return a + b, nil
	case "-":
		return a - b, nil
	case "*":
		return a * b, nil
	case "/":
		if b == 0 {
			return 0, &EvalError{Expr: e.String(), Msg: "division by zero"}
		}
		return a / b, nil
	case "%":
		if b == 0 {
			return 0, &EvalError{Expr: e.String(), Msg: "modulo by zero"}
		}
		return a % b, nil
	case "==":
		return btoi(a == b), nil
	case "!=":
		return btoi(a != b), nil
	case "<":
		return btoi(a < b), nil
	case "<=":
		return btoi(a <= b), nil
	case ">":
		return btoi(a > b), nil
	case ">=":
		return btoi(a >= b), nil
	}
	return 0, &EvalError{Expr: e.String(), Msg: "unknown operator " + e.op}
}

// evalTagRec evaluates a tag expression over a record's tag slots — under
// every guard and filter tag assignment, so it materializes nothing: a tag
// reference finds its slot by interned id in the record's shape.
func evalTagRec(e TagExpr, r *Record) (int, error) {
	switch e := e.(type) {
	case intLit:
		return int(e), nil
	case tagRef:
		if i, ok := r.shape.tagSlotID(e.id); ok {
			return r.tvals[i], nil
		}
		return 0, &EvalError{Expr: e.String(), Msg: "tag not present in record"}
	case *unaryExpr:
		v, err := evalTagRec(e.x, r)
		if err != nil {
			return 0, err
		}
		if e.op == '-' {
			return -v, nil
		}
		return btoi(v == 0), nil
	case *binExpr:
		a, err := evalTagRec(e.x, r)
		if err != nil {
			return 0, err
		}
		switch e.op {
		case "&&":
			if a == 0 {
				return 0, nil
			}
			b, err := evalTagRec(e.y, r)
			if err != nil {
				return 0, err
			}
			return btoi(b != 0), nil
		case "||":
			if a != 0 {
				return 1, nil
			}
			b, err := evalTagRec(e.y, r)
			if err != nil {
				return 0, err
			}
			return btoi(b != 0), nil
		}
		b, err := evalTagRec(e.y, r)
		if err != nil {
			return 0, err
		}
		return e.apply(a, b)
	default:
		return 0, &EvalError{Expr: e.String(), Msg: fmt.Sprintf("%T is not an expression this package built", e)}
	}
}

func (e *binExpr) TagRefs(dst []string) []string {
	return e.y.TagRefs(e.x.TagRefs(dst))
}

func (e *binExpr) String() string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(e.x.String())
	b.WriteByte(' ')
	b.WriteString(e.op)
	b.WriteByte(' ')
	b.WriteString(e.y.String())
	b.WriteByte(')')
	return b.String()
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

// Precedence climbing: || < && < comparisons < additive < multiplicative <
// unary < primary.

// TagExpr parses a tag expression.
func (p *Parser) TagExpr() (TagExpr, error) { return p.parseOr() }

func (p *Parser) parseOr() (TagExpr, error) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.Accept(TokOrOr) {
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		x = &binExpr{op: "||", x: x, y: y}
	}
	return x, nil
}

func (p *Parser) parseAnd() (TagExpr, error) {
	x, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.Accept(TokAndAnd) {
		y, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		x = &binExpr{op: "&&", x: x, y: y}
	}
	return x, nil
}

var cmpOps = map[TokKind]string{
	TokEq: "==", TokNeq: "!=", TokLt: "<", TokLe: "<=", TokGt: ">", TokGe: ">=",
}

func (p *Parser) parseCmp() (TagExpr, error) {
	x, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := cmpOps[p.Peek().Kind]
		if !ok {
			return x, nil
		}
		p.Take()
		y, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		x = &binExpr{op: op, x: x, y: y}
	}
}

func (p *Parser) parseAdd() (TagExpr, error) {
	x, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.Peek().Kind {
		case TokPlus:
			op = "+"
		case TokMinus:
			op = "-"
		default:
			return x, nil
		}
		p.Take()
		y, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		x = &binExpr{op: op, x: x, y: y}
	}
}

func (p *Parser) parseMul() (TagExpr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.Peek().Kind {
		case TokStar:
			op = "*"
		case TokSlash:
			op = "/"
		case TokPercent:
			op = "%"
		default:
			return x, nil
		}
		p.Take()
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = &binExpr{op: op, x: x, y: y}
	}
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
