package core

import (
	"fmt"
	"strings"
)

// FilterItem is one element of a filter output record specifier (§4):
//
//   - a field name occurring in the pattern: copied to the new record;
//   - newfield = oldfield: the old field's value under a new label;
//   - <tag>: copied if the tag occurs in the pattern, else initialised to 0;
//   - <tag> = expr: a tag computed from the incoming record's tags.
type FilterItem struct {
	// Field items (IsTag false): Name is the new label, Src the pattern
	// field it is copied from (Src == Name for plain copies).
	// Tag items (IsTag true): Name is the new tag label, Expr its value
	// expression; nil Expr means "copy if in pattern, else zero".
	Name  string
	IsTag bool
	Src   string
	Expr  TagExpr
}

func (it FilterItem) String() string {
	if it.IsTag {
		if it.Expr == nil {
			return "<" + it.Name + ">"
		}
		return "<" + it.Name + ">=" + it.Expr.String()
	}
	if it.Src == it.Name {
		return it.Name
	}
	return it.Name + "=" + it.Src
}

// FilterSpec is a complete filter: a pattern and the list of output record
// specifiers produced for every matching input record.
//
//	[ {a,b,<c>} -> {a, z=a, <t>}; {b, a=b, <c>=<c>+1} ]
//
// Labels of the incoming record that do not occur in the pattern are
// attached to every output record by flow inheritance, unless the output
// already carries the label.
type FilterSpec struct {
	Pattern Pattern
	Outputs [][]FilterItem
}

func (f *FilterSpec) String() string {
	outs := make([]string, len(f.Outputs))
	for i, o := range f.Outputs {
		parts := make([]string, len(o))
		for j, it := range o {
			parts[j] = it.String()
		}
		outs[i] = "{" + strings.Join(parts, ",") + "}"
	}
	return "[" + f.Pattern.String() + " -> " + strings.Join(outs, "; ") + "]"
}

// itemLabels lists the labels one output specifier produces, in item order.
func itemLabels(items []FilterItem) []Label {
	out := make([]Label, len(items))
	for i, it := range items {
		out[i] = Label{Name: it.Name, IsTag: it.IsTag}
	}
	return out
}

// OutType approximates the filter's output type from the specifiers.
func (f *FilterSpec) OutType() RecType {
	out := make(RecType, len(f.Outputs))
	for i, items := range f.Outputs {
		out[i] = NewVariant(itemLabels(items)...)
	}
	return out
}

// filterProg is a FilterSpec compiled against one input shape (prog.go): the
// pattern's guard, and per output specifier the interned output shape, the
// moves from the input — items that copy a pattern label and flow inheritance
// alike — and the tags the filter computes.  A shape the pattern's variant does
// not admit has no program (nil): the static match verdict rides in its memo.
//
// The program is total: an item name given twice in one output resolves to
// the later item at compile time, and a source field the input shape lacks
// (only a programmatically built spec can name one outside its pattern)
// compiles to a program whose apply is that error.
type filterProg struct {
	spec  *FilterSpec
	guard *tagProg // nil: none
	outs  []filterOut
	// missing names the first source field absent from the input shape; no
	// record of this shape can be rewritten, so apply reports it and builds
	// nothing.
	missing string
}

// filterOut builds one output record: outProg's moves, then the computed tags.
type filterOut struct {
	outProg
	set []tagSet
}

// tagSet writes output tag slot dst: the value of prog over the input
// record's tags, or zero without one (a tag the pattern does not bind).
type tagSet struct {
	dst  int
	prog *tagProg
}

// compileFilterProg binds spec to one input shape; nil if records of that
// shape do not match the pattern's variant.
func compileFilterProg(spec *FilterSpec, src *shape) *filterProg {
	pat, bound := spec.Pattern.Variant, spec.Pattern.bind(src)
	if !bound.admits {
		return nil
	}
	p := &filterProg{spec: spec, guard: bound.guard, outs: make([]filterOut, len(spec.Outputs))}
	for oi, items := range spec.Outputs {
		out := &p.outs[oi]
		var dst []int
		out.outProg, dst = layOut(src, pat, itemLabels(items))
		for i, it := range items {
			if !it.IsTag {
				from, ok := src.fieldSlot(it.Src)
				if !ok {
					p.outs, p.missing = nil, it.Src
					return p
				}
				if dst[i] >= 0 {
					out.fields = append(out.fields, slotCopy{dst: dst[i], src: from})
				}
				continue
			}
			if dst[i] < 0 {
				continue // a later item of the same name wins
			}
			from, bound := src.tagSlot(it.Name)
			switch {
			case it.Expr != nil:
				out.set = append(out.set, tagSet{dst: dst[i], prog: compileTagExpr(it.Expr, src)})
			case bound && pat.Has(Tag(it.Name)):
				out.tags = append(out.tags, slotCopy{dst: dst[i], src: from})
			default:
				out.set = append(out.set, tagSet{dst: dst[i]})
			}
		}
	}
	return p
}

// apply builds the output records for one matching input record of the shape
// the program was compiled against, slot-by-slot from the arena front f.  dst is
// reused across records by the caller's run loop; on error (a tag expression
// that cannot be evaluated, a missing source field) every already-built
// output is returned to the arena.
func (p *filterProg) apply(f *arenaFront, rec *Record, dst []*Record) ([]*Record, error) {
	if p.missing != "" {
		return nil, fmt.Errorf("filter %s: input record %s has no field %q", p.spec, rec, p.missing)
	}
	outs := dst[:0]
	for oi := range p.outs {
		op := &p.outs[oi]
		o := f.acquire(op.shape)
		outs = append(outs, o)
		op.run(o, rec)
		for _, t := range op.set {
			v := 0
			if t.prog != nil {
				var err error
				if v, err = t.prog.eval(rec.tvals); err != nil {
					for _, b := range outs {
						f.releaseRecord(b)
					}
					return nil, fmt.Errorf("filter %s: %w", p.spec, err)
				}
			}
			o.tvals[t.dst] = v
		}
	}
	return outs, nil
}

// ParseFilter parses the paper's filter notation, with or without the
// enclosing brackets:
//
//	[{a,b,<c>} -> {a,z=a,<t>}; {b,a=b,<c>=<c>+1}]
//
// An empty output list ("[{x} -> ]") is permitted and discards matching
// records (useful for termination sinks).
func ParseFilter(src string) (*FilterSpec, error) { return parseAll(src, (*Parser).Filter) }

// MustParseFilter is ParseFilter panicking on error.
func MustParseFilter(src string) *FilterSpec { return must(ParseFilter(src)) }

// Filter parses a filter: a pattern, "->" and the ';'-separated output
// specifiers, inside brackets if it opens with one.
func (p *Parser) Filter() (*FilterSpec, error) {
	bracketed := p.Accept(TokLBrack)
	pat, err := p.Pattern()
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(TokArrow); err != nil {
		return nil, err
	}
	spec := &FilterSpec{Pattern: pat}
	for p.At(TokLBrace) {
		items, err := p.filterOutput(pat)
		if err != nil {
			return nil, err
		}
		spec.Outputs = append(spec.Outputs, items)
		if !p.Accept(TokSemi) {
			break
		}
	}
	if bracketed {
		if _, err := p.Expect(TokRBrack); err != nil {
			return nil, err
		}
	}
	return spec, nil
}

func (p *Parser) filterOutput(pat Pattern) ([]FilterItem, error) {
	items := []FilterItem{}
	err := p.list(TokLBrace, TokRBrace, func() error {
		// Every item opens with the label it synthesizes — through Label, so
		// the runtime's reserved namespace is refused here too.
		l, err := p.Label()
		if err != nil {
			return err
		}
		switch assigned := p.Accept(TokAssign); {
		case l.IsTag && assigned:
			e, err := p.TagExpr()
			if err != nil {
				return err
			}
			for _, ref := range e.TagRefs(nil) {
				if !pat.Variant.Has(Tag(ref)) {
					return p.Errf("tag <%s> used in expression but not in filter pattern", ref)
				}
			}
			items = append(items, FilterItem{Name: l.Name, IsTag: true, Expr: e})
		case l.IsTag:
			items = append(items, FilterItem{Name: l.Name, IsTag: true})
		default:
			src := l.Name
			if assigned {
				t, err := p.Expect(TokIdent)
				if err != nil {
					return err
				}
				src = t.Text
			}
			if !pat.Variant.Has(Field(src)) {
				return p.Errf("field %q not in filter pattern", src)
			}
			items = append(items, FilterItem{Name: l.Name, Src: src})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return items, nil
}
