package core

// Slot programs — how the runtime builds a record.
//
// Which labels a box consumes, emits and passes on is a static fact of the
// typed network (§4), and so is the layout of everything a node builds: given
// the node and the shape of the record in front of it, the output's interned
// shape, the slot of every produced value and the slots flow inheritance
// carries over are known before a value is looked at.  Every node that builds
// records — box, filter, synchrocell, HideTags — compiles that on first sight
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

// acquireShaped takes a record from the arena and gives it the layout sh, its
// slots yet to be written.  Arena records keep their slot capacity across
// recycling, so after warm-up the resizes are free.
func acquireShaped(sh *shape) *Record {
	o := acquireRecord()
	o.shape = sh
	if nf := len(sh.fields); cap(o.fvals) >= nf {
		o.fvals = o.fvals[:nf]
	} else {
		o.fvals = make([]any, nf)
	}
	if nt := len(sh.tags); cap(o.tvals) >= nt {
		o.tvals = o.tvals[:nt]
	} else {
		o.tvals = make([]int, nt)
	}
	return o
}
