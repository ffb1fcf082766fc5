package core

// Pattern is a type pattern with an optional tag guard, as used by serial
// replication exit conditions and synchrocells.  The paper writes patterns
// as "{<done>}" and guarded patterns as "{<level>} | <level> > 40".
type Pattern struct {
	Variant Variant
	Guard   TagExpr // nil means unconditionally
}

// Matches reports whether the record satisfies the pattern: it must carry
// every label of the variant and, if a guard is present, the guard must
// evaluate to nonzero over the record's tags.  A guard that fails to
// evaluate (e.g. references an absent tag) does not match.
// Matches binds the pattern to the record's shape on every call; the runtime
// keeps that binding per shape.
func (p Pattern) Matches(r *Record) bool { return p.bind(r.shape).matches(r) }

// boundPattern is a pattern seen from one record shape — the per-shape entry of
// whoever matches records against it: whether the shape carries the variant's
// labels and, if it does, the guard compiled against it (nil: no guard).
type boundPattern struct {
	admits bool
	guard  *tagProg
}

func (p Pattern) bind(sh *shape) boundPattern {
	b := boundPattern{admits: p.Variant.SubsetOf(sh.variant)}
	if b.admits && p.Guard != nil {
		b.guard = compileTagExpr(p.Guard, sh)
	}
	return b
}

func (b boundPattern) matches(r *Record) bool { return b.admits && b.guard.holds(r) }

func (p Pattern) String() string {
	s := p.Variant.String()
	if p.Guard != nil {
		s += " | " + p.Guard.String()
	}
	return s
}

// ParsePattern parses "{a, b, <c>}" optionally followed by a guard
// introduced with '|' (the paper's notation) or the keyword "if".
func ParsePattern(src string) (Pattern, error) { return parseAll(src, (*Parser).Pattern) }

// MustParsePattern is ParsePattern panicking on error.
func MustParsePattern(src string) Pattern { return must(ParsePattern(src)) }

// Pattern parses a braced variant and its optional guard.
func (p *Parser) Pattern() (Pattern, error) {
	v, err := p.Variant()
	if err != nil {
		return Pattern{}, err
	}
	pat := Pattern{Variant: v}
	if p.Accept(TokPipe) || (p.At(TokIdent) && p.Peek().Text == "if" && p.Accept(TokIdent)) {
		g, err := p.TagExpr()
		if err != nil {
			return Pattern{}, err
		}
		pat.Guard = g
	}
	return pat, nil
}

// Variant parses "{a, b, <c>}" into a label set.
func (p *Parser) Variant() (Variant, error) {
	v := Variant{}
	err := p.list(TokLBrace, TokRBrace, func() error {
		l, err := p.Label()
		v[l] = struct{}{}
		return err
	})
	if err != nil {
		return nil, err
	}
	return v, nil
}

// Label parses a field name or a <tag>.
func (p *Parser) Label() (Label, error) {
	var l Label
	switch t := p.Peek(); t.Kind {
	case TokIdent:
		l = Field(t.Text)
	case TokTagName:
		l = Tag(t.Text)
	default:
		return Label{}, p.Errf("expected field or tag label, found %v", t.Kind)
	}
	// Reserved-namespace enforcement: signatures, patterns and filters all
	// parse labels through here, so no user network can consume, match or
	// synthesize the runtime's control labels (session multiplexing and the
	// replica close protocol depend on that).
	if IsReservedLabel(l.Name) {
		return Label{}, p.Errf("label %s lies in the reserved %q namespace", l, ReservedTagPrefix)
	}
	p.Take()
	return l, nil
}
