package sacvm

import "strconv"

// Parse parses a SaC module (a sequence of function definitions).
func Parse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{Funs: map[string]*FunDecl{}}
	for !p.at(tEOF) {
		fd, err := p.parseFun()
		if err != nil {
			return nil, err
		}
		if _, dup := prog.Funs[fd.Name]; dup {
			return nil, errf(fd.At, "duplicate function %q", fd.Name)
		}
		prog.Funs[fd.Name] = fd
		prog.Order = append(prog.Order, fd.Name)
	}
	return prog, nil
}

// MustParse is Parse panicking on error (for embedded programs).
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	toks []tok
	i    int
}

func (p *parser) peek() tok { return p.toks[p.i] }
func (p *parser) peekAt(n int) tok {
	if p.i+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.i+n]
}
func (p *parser) take() tok      { t := p.toks[p.i]; p.i++; return t }
func (p *parser) at(k kind) bool { return p.toks[p.i].kind == k }
func (p *parser) atKw(kw string) bool {
	return p.at(tIdent) && p.peek().text == kw
}

func (p *parser) accept(k kind) bool {
	if p.at(k) {
		p.i++
		return true
	}
	return false
}

func (p *parser) acceptKw(kw string) bool {
	if p.atKw(kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(k kind) (tok, error) {
	if !p.at(k) {
		return tok{}, errf(p.peek().pos, "expected %v, found %v", k, p.peek().kind)
	}
	return p.take(), nil
}

var baseTypes = map[string]bool{"int": true, "bool": true, "double": true, "void": true}

func (p *parser) atType() bool { return p.at(tIdent) && baseTypes[p.peek().text] }

// parseType parses int, bool[.], double[*], int[3,7] etc.
func (p *parser) parseType() (TypeExpr, error) {
	if !p.atType() {
		return TypeExpr{}, errf(p.peek().pos, "expected type, found %v", p.peek().kind)
	}
	te := TypeExpr{Base: p.take().text, Rank: 0}
	if !p.accept(tLBrack) {
		return te, nil
	}
	if p.accept(tRBrack) {
		return te, nil // int[] — scalar notation
	}
	rank := 0
	for {
		switch {
		case p.at(tStar):
			p.take()
			te.Rank = -1
		case p.at(tDot): // int[.,.]: known rank, unknown shape
			p.take()
			rank++
		case p.at(tInt): // int[3,7]: fixed shape
			p.take()
			rank++
		default:
			return te, errf(p.peek().pos, "expected '*', '.' or integer in type dimensions")
		}
		if p.accept(tComma) {
			continue
		}
		if _, err := p.expect(tRBrack); err != nil {
			return te, err
		}
		if te.Rank >= 0 {
			te.Rank = rank
		}
		return te, nil
	}
}

// parseFun parses: type (',' type)* name '(' params ')' '{' body '}'.
// The name may be the operator form (++).
func (p *parser) parseFun() (*FunDecl, error) {
	at := p.peek().pos
	var rets []TypeExpr
	for {
		te, err := p.parseType()
		if err != nil {
			return nil, err
		}
		rets = append(rets, te)
		if p.accept(tComma) {
			continue
		}
		break
	}
	var name string
	switch {
	case p.at(tIdent):
		name = p.take().text
	case p.at(tLParen) && p.peekAt(1).kind == tPlusPlus && p.peekAt(2).kind == tRParen:
		p.take()
		p.take()
		p.take()
		name = "++"
	default:
		return nil, errf(p.peek().pos, "expected function name, found %v", p.peek().kind)
	}
	if _, err := p.expect(tLParen); err != nil {
		return nil, err
	}
	var params []Param
	if !p.accept(tRParen) {
		for {
			te, err := p.parseType()
			if err != nil {
				return nil, err
			}
			id, err := p.expect(tIdent)
			if err != nil {
				return nil, err
			}
			params = append(params, Param{Type: te, Name: id.text})
			if p.accept(tComma) {
				continue
			}
			if _, err := p.expect(tRParen); err != nil {
				return nil, err
			}
			break
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &FunDecl{Name: name, Returns: rets, Params: params, Body: body, At: at}, nil
}

func (p *parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(tLBrace); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for !p.accept(tRBrace) {
		if p.at(tEOF) {
			return nil, errf(p.peek().pos, "unexpected end of input in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	at := p.peek().pos
	switch {
	case p.atKw("if"):
		return p.parseIf()
	case p.atKw("for"):
		return p.parseFor()
	case p.atKw("while"):
		p.take()
		cond, err := p.parenExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, At: at}, nil
	case p.atKw("return"):
		p.take()
		rs := &ReturnStmt{At: at}
		if p.accept(tSemi) {
			return rs, nil
		}
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		var err error
		if rs.Exprs, err = p.exprList(tRParen, true); err != nil {
			return nil, err
		}
		if _, err := p.expect(tSemi); err != nil {
			return nil, err
		}
		return rs, nil
	}
	// Assignment, index assignment or call statement — all start with an
	// identifier.
	if !p.at(tIdent) {
		return nil, errf(at, "expected statement, found %v", p.peek().kind)
	}
	// call statement: IDENT '(' ... ')' ';'
	if p.peekAt(1).kind == tLParen {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tSemi); err != nil {
			return nil, err
		}
		return &ExprStmt{X: e, At: at}, nil
	}
	// index assignment: IDENT '[' idx ']' '=' expr ';'
	if p.peekAt(1).kind == tLBrack {
		name := p.take().text
		p.take() // '['
		idx, err := p.exprList(tRBrack, false)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tAssign); err != nil {
			return nil, err
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tSemi); err != nil {
			return nil, err
		}
		return &IndexAssignStmt{Name: name, Index: idx, Value: v, At: at}, nil
	}
	// (multi-)assignment: IDENT (',' IDENT)* '=' exprs ';'
	var targets []string
	targets = append(targets, p.take().text)
	for p.accept(tComma) {
		id, err := p.expect(tIdent)
		if err != nil {
			return nil, err
		}
		targets = append(targets, id.text)
	}
	if _, err := p.expect(tAssign); err != nil {
		return nil, err
	}
	exprs, err := p.exprList(tSemi, false)
	if err != nil {
		return nil, err
	}
	return &AssignStmt{Targets: targets, Exprs: exprs, At: at}, nil
}

func (p *parser) parseIf() (Stmt, error) {
	at := p.take().pos // "if"
	cond, err := p.parenExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then, At: at}
	if p.acceptKw("else") {
		if p.atKw("if") {
			nested, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			st.Else = []Stmt{nested}
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
	}
	return st, nil
}

func (p *parser) parseFor() (Stmt, error) {
	at := p.take().pos // "for"
	if _, err := p.expect(tLParen); err != nil {
		return nil, err
	}
	st := &ForStmt{At: at}
	if !p.at(tSemi) {
		init, err := p.parseSimpleAssign()
		if err != nil {
			return nil, err
		}
		st.Init = init
	}
	if _, err := p.expect(tSemi); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	st.Cond = cond
	if _, err := p.expect(tSemi); err != nil {
		return nil, err
	}
	if !p.at(tRParen) {
		post, err := p.parseSimpleAssign()
		if err != nil {
			return nil, err
		}
		st.Post = post
	}
	if _, err := p.expect(tRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

// parseSimpleAssign parses the for-header forms `k = expr` and `k++`.
func (p *parser) parseSimpleAssign() (Stmt, error) {
	at := p.peek().pos
	id, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	if p.accept(tPlusPlus) {
		return &AssignStmt{Targets: []string{id.text},
			Exprs: []Expr{&BinExpr{Op: "+", X: &VarRef{Name: id.text, At: at},
				Y: &IntLit{V: 1, At: at}, At: at}}, At: at}, nil
	}
	if _, err := p.expect(tAssign); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &AssignStmt{Targets: []string{id.text}, Exprs: []Expr{e}, At: at}, nil
}

// --- expressions ---

// binaryLevels is the precedence table: the left-associative binary
// operators, loosest level first.  ++ is the user-defined concatenation and
// parses to a call.
var binaryLevels = [...]map[kind]string{
	{tOr: "||"},
	{tAnd: "&&"},
	{tEq: "==", tNeq: "!=", tLt: "<", tLe: "<=", tGt: ">", tGe: ">="},
	{tPlus: "+", tMinus: "-", tPlusPlus: "++"},
	{tStar: "*", tSlash: "/", tPercent: "%"},
}

// additiveLevel is where a generator bound parses: at full precedence the
// '<=' or '<' relating bound and loop variable would be swallowed.
const additiveLevel = 3

func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(0) }

// parseBinary parses the operators of binaryLevels[level] over operands of
// the next tighter level.
func (p *parser) parseBinary(level int) (Expr, error) {
	if level == len(binaryLevels) {
		return p.parseUnary()
	}
	x, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		op, ok := binaryLevels[level][p.peek().kind]
		if !ok {
			return x, nil
		}
		at := p.take().pos
		y, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		if op == "++" {
			x = &CallExpr{Name: "++", Args: []Expr{x, y}, At: at}
		} else {
			x = &BinExpr{Op: op, X: x, Y: y, At: at}
		}
	}
}

// exprList parses expr (',' expr)* up to and including the closing token,
// after the opening one; orNone admits the empty list.
func (p *parser) exprList(closing kind, orNone bool) ([]Expr, error) {
	if orNone && p.accept(closing) {
		return nil, nil
	}
	var list []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if p.accept(tComma) {
			continue
		}
		if _, err := p.expect(closing); err != nil {
			return nil, err
		}
		return list, nil
	}
}

// parenExpr parses '(' expr ')'.
func (p *parser) parenExpr() (Expr, error) {
	if _, err := p.expect(tLParen); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tRParen); err != nil {
		return nil, err
	}
	return e, nil
}

var unaryOps = map[kind]byte{tMinus: '-', tNot: '!'}

func (p *parser) parseUnary() (Expr, error) {
	op, ok := unaryOps[p.peek().kind]
	if !ok {
		return p.parsePostfix()
	}
	at := p.take().pos
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return &UnaryExpr{Op: op, X: x, At: at}, nil
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.at(tLBrack) {
		at := p.take().pos
		idx, err := p.exprList(tRBrack, false)
		if err != nil {
			return nil, err
		}
		x = &IndexExpr{X: x, Idx: idx, At: at}
	}
	return x, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	at := p.peek().pos
	switch {
	case p.at(tInt):
		text := p.take().text
		n, err := strconv.Atoi(text)
		if err != nil {
			return nil, errf(at, "integer literal %s out of range", text)
		}
		return &IntLit{V: n, At: at}, nil
	case p.at(tDouble):
		text := p.take().text
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, errf(at, "double literal %s out of range", text)
		}
		return &DoubleLit{V: f, At: at}, nil
	case p.atKw("true"):
		p.take()
		return &BoolLit{V: true, At: at}, nil
	case p.atKw("false"):
		p.take()
		return &BoolLit{V: false, At: at}, nil
	case p.atKw("with"):
		return p.parseWith()
	case p.at(tIdent):
		name := p.take().text
		if p.accept(tLParen) {
			args, err := p.exprList(tRParen, true)
			if err != nil {
				return nil, err
			}
			return &CallExpr{Name: name, Args: args, At: at}, nil
		}
		return &VarRef{Name: name, At: at}, nil
	case p.at(tLParen):
		return p.parenExpr()
	case p.accept(tLBrack):
		elems, err := p.exprList(tRBrack, true)
		if err != nil {
			return nil, err
		}
		return &ArrayLit{Elems: elems, At: at}, nil
	}
	return nil, errf(at, "expected expression, found %v", p.peek().kind)
}

// parseWith parses
//
//	with { (lb <= iv <= ub) : expr; ... } : genarray(shape, def)
//	                                      | modarray(array)
//	                                      | fold(op, neutral)
func (p *parser) parseWith() (Expr, error) {
	at := p.take().pos // "with"
	if _, err := p.expect(tLBrace); err != nil {
		return nil, err
	}
	wl := &WithLoop{At: at}
	for !p.accept(tRBrace) {
		g, err := p.parseGenerator()
		if err != nil {
			return nil, err
		}
		wl.Gens = append(wl.Gens, g)
	}
	if _, err := p.expect(tColon); err != nil {
		return nil, err
	}
	kw, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tLParen); err != nil {
		return nil, err
	}
	switch kw.text {
	case "genarray":
		wl.Kind = GenGenarray
		if wl.A1, err = p.parseExpr(); err != nil {
			return nil, err
		}
		if _, err := p.expect(tComma); err != nil {
			return nil, err
		}
		if wl.A2, err = p.parseExpr(); err != nil {
			return nil, err
		}
	case "modarray":
		wl.Kind = GenModarray
		if wl.A1, err = p.parseExpr(); err != nil {
			return nil, err
		}
	case "fold":
		wl.Kind = GenFold
		op, err := p.parseFoldOp()
		if err != nil {
			return nil, err
		}
		wl.Op = op
		if _, err := p.expect(tComma); err != nil {
			return nil, err
		}
		if wl.A1, err = p.parseExpr(); err != nil {
			return nil, err
		}
	default:
		return nil, errf(kw.pos, "expected genarray, modarray or fold, found %q", kw.text)
	}
	if _, err := p.expect(tRParen); err != nil {
		return nil, err
	}
	return wl, nil
}

func (p *parser) parseFoldOp() (string, error) {
	switch p.peek().kind {
	case tPlus:
		p.take()
		return "+", nil
	case tStar:
		p.take()
		return "*", nil
	case tAnd:
		p.take()
		return "&&", nil
	case tOr:
		p.take()
		return "||", nil
	case tIdent:
		name := p.take().text
		switch name {
		case "add":
			return "+", nil
		case "mul":
			return "*", nil
		case "and":
			return "&&", nil
		case "or":
			return "||", nil
		case "min", "max":
			return name, nil
		}
		return "", errf(p.peekAt(-1).pos, "unknown fold operator %q", name)
	}
	return "", errf(p.peek().pos, "expected fold operator")
}

// parseGenerator parses ( lower <= var <|<= upper ) : expr ;
func (p *parser) parseGenerator() (GenSpec, error) {
	at := p.peek().pos
	if _, err := p.expect(tLParen); err != nil {
		return GenSpec{}, err
	}
	lower, err := p.parseBinary(additiveLevel)
	if err != nil {
		return GenSpec{}, err
	}
	g := GenSpec{Lower: lower, At: at}
	switch {
	case p.accept(tLe):
		g.LowerIncl = true
	case p.accept(tLt):
		g.LowerIncl = false
	default:
		return GenSpec{}, errf(p.peek().pos, "expected '<=' or '<' after generator lower bound")
	}
	id, err := p.expect(tIdent)
	if err != nil {
		return GenSpec{}, err
	}
	g.Var = id.text
	switch {
	case p.accept(tLe):
		g.UpperIncl = true
	case p.accept(tLt):
		g.UpperIncl = false
	default:
		return GenSpec{}, errf(p.peek().pos, "expected '<=' or '<' after generator variable")
	}
	upper, err := p.parseBinary(additiveLevel)
	if err != nil {
		return GenSpec{}, err
	}
	g.Upper = upper
	if _, err := p.expect(tRParen); err != nil {
		return GenSpec{}, err
	}
	if _, err := p.expect(tColon); err != nil {
		return GenSpec{}, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return GenSpec{}, err
	}
	g.Body = body
	if _, err := p.expect(tSemi); err != nil {
		return GenSpec{}, err
	}
	return g, nil
}
