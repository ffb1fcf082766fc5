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

// OutType approximates the filter's output type from the specifiers.
func (f *FilterSpec) OutType() RecType {
	out := make(RecType, len(f.Outputs))
	for i, items := range f.Outputs {
		v := Variant{}
		for _, it := range items {
			v[Label{Name: it.Name, IsTag: it.IsTag}] = struct{}{}
		}
		out[i] = v
	}
	return out
}

// filterProg is a FilterSpec compiled against one input shape: a flat fill
// program bound to slot indices on both sides.  Every label is resolved once
// (shape transitions, slot lookups, the inheritance scan) — per output record
// the program acquires an arena record, stamps the precomputed output shape,
// and runs a list of slot-to-slot moves.  Every slot of the output shape is
// written by exactly one fill, so records come out fully initialized with no
// clearing pass.
//
// The program is total: an item name given twice in one output resolves to
// the later item at compile time, and a source field the input shape lacks
// (only a programmatically built spec can name one outside its pattern)
// compiles to a program whose apply is that error.
type filterProg struct {
	spec *FilterSpec
	outs []outProg
	// missing names the first source field absent from the input shape; no
	// record of this shape can be rewritten, so apply reports it and builds
	// nothing.
	missing string
}

// outProg builds one output record: the interned shape plus the fills.
type outProg struct {
	shape  *shape
	fields []fieldFill
	tags   []tagFill
}

// fieldFill copies input field slot src to output field slot dst.
type fieldFill struct{ dst, src int }

// tagFill writes output tag slot dst: from expr when non-nil, else copied
// from input tag slot src, else (src < 0) initialized to zero.
type tagFill struct {
	dst, src int
	expr     TagExpr
}

// compileFilterProg binds spec to one input shape.
func compileFilterProg(spec *FilterSpec, src *shape) *filterProg {
	p := &filterProg{spec: spec}
	for _, items := range spec.Outputs {
		fieldSrc := map[string]int{}
		type tagDef struct {
			src  int
			expr TagExpr
		}
		tagSrc := map[string]tagDef{}
		for _, it := range items {
			if it.IsTag {
				if it.Expr != nil {
					tagSrc[it.Name] = tagDef{src: -1, expr: it.Expr}
					continue
				}
				slot := -1
				if i, ok := src.tagSlot(it.Name); ok && spec.Pattern.Variant.Has(Tag(it.Name)) {
					slot = i
				}
				tagSrc[it.Name] = tagDef{src: slot}
				continue
			}
			i, ok := src.fieldSlot(it.Src)
			if !ok {
				return &filterProg{spec: spec, missing: it.Src}
			}
			fieldSrc[it.Name] = i
		}
		// Flow inheritance, resolved statically: every label of the input
		// shape that is neither consumed by the pattern nor explicitly
		// produced is a plain copy (mirrors inheritInto over this shape).
		for i, name := range src.fieldNames {
			if spec.Pattern.Variant.Has(Field(name)) {
				continue
			}
			if _, explicit := fieldSrc[name]; !explicit {
				fieldSrc[name] = i
			}
		}
		for i, name := range src.tagNames {
			if spec.Pattern.Variant.Has(Tag(name)) {
				continue
			}
			if _, explicit := tagSrc[name]; !explicit {
				tagSrc[name] = tagDef{src: i}
			}
		}
		v := make(Variant, len(fieldSrc)+len(tagSrc))
		for name := range fieldSrc {
			v[Field(name)] = struct{}{}
		}
		for name := range tagSrc {
			v[Tag(name)] = struct{}{}
		}
		osh := shapeForVariant(v)
		op := outProg{shape: osh,
			fields: make([]fieldFill, 0, len(fieldSrc)),
			tags:   make([]tagFill, 0, len(tagSrc))}
		for name, s := range fieldSrc {
			d, _ := osh.fieldSlot(name)
			op.fields = append(op.fields, fieldFill{dst: d, src: s})
		}
		for name, td := range tagSrc {
			d, _ := osh.tagSlot(name)
			op.tags = append(op.tags, tagFill{dst: d, src: td.src, expr: td.expr})
		}
		p.outs = append(p.outs, op)
	}
	return p
}

// apply builds the output records for one matching input record of the shape
// the program was compiled against, slot-by-slot from the arena.  dst is
// reused across records by the caller's run loop; on error (a tag expression
// that cannot be evaluated, a missing source field) every already-built
// output is returned to the arena.
func (p *filterProg) apply(rec *Record, dst []*Record) ([]*Record, error) {
	if p.missing != "" {
		return nil, fmt.Errorf("filter %s: input record %s has no field %q", p.spec, rec, p.missing)
	}
	outs := dst[:0]
	for oi := range p.outs {
		op := &p.outs[oi]
		o := acquireRecord()
		o.shape = op.shape
		// Arena records keep their slot capacity across recycling, so after
		// warmup these resizes are free; every slot is then written by
		// exactly one fill below.
		if nf := len(op.shape.fieldNames); cap(o.fvals) >= nf {
			o.fvals = o.fvals[:nf]
		} else {
			o.fvals = make([]any, nf)
		}
		if nt := len(op.shape.tagNames); cap(o.tvals) >= nt {
			o.tvals = o.tvals[:nt]
		} else {
			o.tvals = make([]int, nt)
		}
		outs = append(outs, o)
		for _, f := range op.fields {
			o.fvals[f.dst] = rec.fvals[f.src]
		}
		for _, t := range op.tags {
			switch {
			case t.expr != nil:
				v, err := evalTagRec(t.expr, rec)
				if err != nil {
					for _, b := range outs {
						releaseRecord(b)
					}
					return nil, fmt.Errorf("filter %s: %w", p.spec, err)
				}
				o.tvals[t.dst] = v
			case t.src >= 0:
				o.tvals[t.dst] = rec.tvals[t.src]
			default:
				o.tvals[t.dst] = 0
			}
		}
	}
	return outs, nil
}

// inheritInto implements flow inheritance: every label of src that is not
// consumed (not in the consumed variant) is copied to dst unless dst already
// carries the label.
func inheritInto(dst, src *Record, consumed Variant) {
	for i, name := range src.shape.fieldNames {
		if consumed.Has(Field(name)) {
			continue
		}
		if _, ok := dst.shape.fieldSlot(name); !ok {
			dst.SetField(name, src.fvals[i])
		}
	}
	for i, name := range src.shape.tagNames {
		if consumed.Has(Tag(name)) {
			continue
		}
		if _, ok := dst.shape.tagSlot(name); !ok {
			dst.SetTag(name, src.tvals[i])
		}
	}
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
	if _, err := p.Expect(TokLBrace); err != nil {
		return nil, err
	}
	items := []FilterItem{}
	if p.Accept(TokRBrace) {
		return items, nil
	}
	for {
		// Every item opens with the label it synthesizes — through Label, so
		// the runtime's reserved namespace is refused here too.
		l, err := p.Label()
		if err != nil {
			return nil, err
		}
		switch assigned := p.Accept(TokAssign); {
		case l.IsTag && assigned:
			e, err := p.TagExpr()
			if err != nil {
				return nil, err
			}
			for _, ref := range e.TagRefs(nil) {
				if !pat.Variant.Has(Tag(ref)) {
					return nil, p.Errf("tag <%s> used in expression but not in filter pattern", ref)
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
					return nil, err
				}
				src = t.Text
			}
			if !pat.Variant.Has(Field(src)) {
				return nil, p.Errf("field %q not in filter pattern", src)
			}
			items = append(items, FilterItem{Name: l.Name, Src: src})
		}
		if p.Accept(TokComma) {
			continue
		}
		if _, err := p.Expect(TokRBrace); err != nil {
			return nil, err
		}
		return items, nil
	}
}
