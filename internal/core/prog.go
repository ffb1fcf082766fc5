package core

// Slot programs — how the runtime builds a record.
//
// Which labels a box consumes, emits and passes on is a static fact of the
// typed network (§4), and so is the layout of everything a node builds: given
// the node and the shape of the record in front of it, the output's interned
// shape, the slot of every produced value and the slots flow inheritance
// carries over are known before a value is looked at.  Every node that builds
// records — box, filter, synchrocell — compiles that on first sight
// of an input shape and memoizes it on the blueprint (shapeMemo), behind the
// latest shape's entry in the instance's own state.  No label name is searched,
// hashed or compared per record: Record's by-name methods (record.go) are the
// API of user code and are not called from inside the runtime.

// slotCopy moves the value of source slot src to output slot dst — both field
// slots or both tag slots, by the list it stands in.
type slotCopy struct{ dst, src int }

// slotCopies are the moves from one source record into one output record.
type slotCopies struct{ fields, tags []slotCopy }

func (c *slotCopies) run(dst, src *Record) {
	for _, f := range c.fields {
		dst.fvals[f.dst] = src.fvals[f.src]
	}
	for _, t := range c.tags {
		dst.tvals[t.dst] = src.tvals[t.src]
	}
}

// copiesInto lists the moves that carry the labels of src that want admits
// into the layout out, which must hold them.
func copiesInto(out, src *shape, want func(Label) bool) (c slotCopies) {
	for i, name := range src.fieldNames {
		if want(Field(name)) {
			d, _ := out.fieldSlot(name)
			c.fields = append(c.fields, slotCopy{dst: d, src: i})
		}
	}
	for i, name := range src.tagNames {
		if want(Tag(name)) {
			d, _ := out.tagSlot(name)
			c.tags = append(c.tags, slotCopy{dst: d, src: i})
		}
	}
	return c
}

// outProg builds one output record from one input record of a known shape:
// the interned output shape and the moves from the input.  What else goes into
// the record — a box's emitted values, a filter's computed tags — its owner
// writes; between them every slot is written exactly once, so the record needs
// no clearing pass.
type outProg struct {
	shape *shape
	slotCopies
}

// flowInherit is the type of one output record (§4): the labels produced and,
// by flow inheritance, every label of the input that was not consumed.  The
// flow pass (flow.go) and the slot programs share it.
func flowInherit(in, consumed Variant, produced ...Label) Variant {
	out := NewVariant(produced...)
	for l := range in {
		if !consumed.Has(l) {
			out[l] = struct{}{}
		}
	}
	return out
}

// layOut resolves one output record against the input shape src: it carries
// the explicit labels and, by flow inheritance, every label of src that is
// neither consumed nor explicit; the returned program holds the inherited
// moves.  dst[i] is the slot of explicit[i] in the output shape, -1 where a
// later explicit label of the same name overrides it (as a second SetField
// would).
func layOut(src *shape, consumed Variant, explicit []Label) (op outProg, dst []int) {
	produced := NewVariant(explicit...)
	op.shape = shapeForVariant(flowInherit(src.variant, consumed, explicit...))
	op.slotCopies = copiesInto(op.shape, src, func(l Label) bool { return !consumed.Has(l) && !produced.Has(l) })
	dst = make([]int, len(explicit))
	for i, l := range explicit {
		dst[i], _ = op.shape.slot(l)
		for _, later := range explicit[i+1:] {
			if later == l {
				dst[i] = -1
			}
		}
	}
	return op, dst
}

// Tag programs: the tag expressions (tagexpr.go) a filter assigns and guards
// test, compiled per input shape beside the moves — part of the slot program.

// tagArg is an operand: a constant, a slot of the record's tag values or the
// result of an earlier instruction.
type tagArg struct {
	kind uint8
	v    int
}

const (
	argConst = iota
	argSlot
	argTemp
)

func (a tagArg) get(tvals, temps []int) int {
	switch a.kind {
	case argSlot:
		return tvals[a.v]
	case argTemp:
		return temps[a.v]
	}
	return a.v
}

// tagInstr is one binary operator applied; its result is the temp of its own
// index.  -a is 0 - a, !a is a == 0.  && and || come as two: the operator
// itself after the left-hand side, which decides (b.v: where to, the != 0
// closing the right-hand side) or falls through into the right-hand side — so
// the side not taken raises no error.  opMissing stands for a tag the shape
// lacks: an error if control gets there.
type tagInstr struct {
	op   TokKind
	a, b tagArg
	src  TagExpr // '/', '%', opMissing: what an EvalError quotes
}

const opMissing = TokAndAnd + 1

// tagProg is a tag expression compiled against one shape: operands resolved to
// slots, constant subexpressions folded, evaluated in one loop.
type tagProg struct {
	code []tagInstr
	res  tagArg
}

func compileTagExpr(e TagExpr, sh *shape) *tagProg {
	p := &tagProg{}
	p.res = p.emit(e, sh)
	return p
}

// emit appends the code of e, in evaluation order, and returns its value.
func (p *tagProg) emit(e TagExpr, sh *shape) tagArg {
	switch e := e.(type) {
	case intLit:
		return tagArg{argConst, int(e)}
	case tagRef:
		if i, ok := sh.tagSlotID(e.id); ok {
			return tagArg{argSlot, i}
		}
		return p.push(tagInstr{op: opMissing, src: e})
	case *unaryExpr:
		if e.op == '-' {
			return p.fold(tagInstr{op: TokMinus, b: p.emit(e.x, sh)})
		}
		return p.fold(tagInstr{op: TokEq, a: p.emit(e.x, sh)})
	case *binExpr:
		a := p.emit(e.x, sh)
		if or := e.op == TokOrOr; !or && e.op != TokAndAnd {
			return p.fold(tagInstr{op: e.op, a: a, b: p.emit(e.y, sh), src: e})
		} else if a.kind != argConst {
			at := p.push(tagInstr{op: e.op, a: a}).v
			end := p.push(tagInstr{op: TokNeq, a: p.emit(e.y, sh)})
			p.code[at].b = end
			return end
		} else if (a.v != 0) == or {
			return tagArg{argConst, btoi(or)} // decided: the right-hand side is dead code
		}
		return p.fold(tagInstr{op: TokNeq, a: p.emit(e.y, sh)})
	}
	panic("core: not a tag expression this package built: " + e.String())
}

func (p *tagProg) push(in tagInstr) tagArg {
	p.code = append(p.code, in)
	return tagArg{argTemp, len(p.code) - 1}
}

// fold is push, unless the operands are constants and the operator succeeds
// on them: then its value is the constant.
func (p *tagProg) fold(in tagInstr) tagArg {
	if in.a.kind == argConst && in.b.kind == argConst {
		one := tagProg{code: []tagInstr{in}, res: tagArg{argTemp, 0}}
		if v, err := one.eval(nil); err == nil {
			return tagArg{argConst, v}
		}
	}
	return p.push(in)
}

func (in *tagInstr) fail(msg string) error { return &EvalError{Expr: in.src.String(), Msg: msg} }

// eval runs the program over a record's tag values.
func (p *tagProg) eval(tvals []int) (int, error) {
	var few [8]int
	temps := few[:]
	if len(p.code) > len(few) {
		temps = make([]int, len(p.code))
	}
	code := p.code
	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		a, b, v := in.a.get(tvals, temps), in.b.get(tvals, temps), 0
		switch in.op {
		case TokPlus:
			v = a + b
		case TokMinus:
			v = a - b
		case TokStar:
			v = a * b
		case TokSlash:
			if b == 0 {
				return 0, in.fail("division by zero")
			}
			v = a / b
		case TokPercent:
			if b == 0 {
				return 0, in.fail("modulo by zero")
			}
			v = a % b
		case TokEq:
			v = btoi(a == b)
		case TokNeq:
			v = btoi(a != b)
		case TokLt:
			v = btoi(a < b)
		case TokLe:
			v = btoi(a <= b)
		case TokGt:
			v = btoi(a > b)
		case TokGe:
			v = btoi(a >= b)
		case TokAndAnd, TokOrOr:
			if v = btoi(in.op == TokOrOr); (a != 0) != (v != 0) {
				continue // undecided: on into the right-hand side
			}
			pc = in.b.v
		default: // opMissing
			return 0, in.fail("tag not present in record")
		}
		temps[pc] = v
	}
	return p.res.get(tvals, temps), nil
}

// holds reports whether the program, a guard, passes over the record: it
// evaluates, and to nonzero.  No guard at all (nil) holds.
func (p *tagProg) holds(r *Record) bool {
	if p == nil {
		return true
	}
	v, err := p.eval(r.tvals)
	return err == nil && v != 0
}
