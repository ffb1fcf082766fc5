package core

import (
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Shapes — the compile-time-interned record layouts behind the slot-array
// record representation (record.go).
//
// A shape is one immutable label set with a fixed slot layout: field slots
// ordered by field name, tag slots ordered by tag name.  Every record points
// at exactly one shape; records with equal label sets share the same shape
// object (shapes are interned in a global registry keyed by the canonical
// ShapeKey), so the routing tables and slot programs (prog.go) key their
// per-shape decisions by shape *pointer* — no string hashing, no
// canonicalization per record.
//
// Mutating a record's label set by name — user code building its inputs —
// walks a shape *transition*: shape + label → shape and slot.  Transitions
// are memoized per shape in a copy-on-write map, so building records of the
// same type over and over never rebuilds layouts — it follows pointers.
//
// Shapes never carry values: they are layouts.  The registry is bounded
// (maxShapes); beyond the cap — only reachable by workloads synthesizing
// unbounded fresh label sets — transitions return unregistered shapes whose
// memory is bounded by the records that reference them.

// shape is one interned record layout.  All exported-ish fields are
// immutable after construction.
type shape struct {
	fields     []labelID // field slots, ascending by name
	fieldNames []string  // aligned with fields
	tags       []labelID // tag slots, ascending by name
	tagNames   []string  // aligned with tags
	key        string    // canonical ShapeKey: "f1,f2|t1,t2"
	variant    Variant   // the label set; treat as immutable

	trans memo[shapeTrans, shapeStep]
}

// shapeTrans is one layout transition: add/remove one field/tag label.
type shapeTrans struct {
	op uint8
	id labelID
}

const (
	transAddField = iota
	transAddTag
	transDelField
	transDelTag
)

// shapeStep is a memoized transition: the target layout and the slot the
// label occupies in it (additions) or vacated in the source (removals).
type shapeStep struct {
	to  *shape
	pos int
}

// maxShapes bounds the global shape registry, as maxMemoEntries bounds each
// shape's memoized transitions.  Real networks see a handful of shapes; the
// caps only matter to adversarial label-synthesizing workloads.
const maxShapes = 1 << 16

var (
	shapeRegMu sync.Mutex
	shapeReg   = map[string]*shape{} // ShapeKey → shape
	emptyShape = newShape(nil, nil, nil, nil)
)

func init() {
	shapeReg[shapeRegKey(nil, nil)] = emptyShape
}

// newShape builds a layout from name-sorted label slices (which it adopts).
func newShape(fields []labelID, fieldNames []string, tags []labelID, tagNames []string) *shape {
	s := &shape{
		fields: fields, fieldNames: fieldNames,
		tags: tags, tagNames: tagNames,
		key:     strings.Join(fieldNames, ",") + "|" + strings.Join(tagNames, ","),
		variant: make(Variant, len(fields)+len(tags)),
	}
	for _, k := range fieldNames {
		s.variant[Field(k)] = struct{}{}
	}
	for _, k := range tagNames {
		s.variant[Tag(k)] = struct{}{}
	}
	return s
}

// shapeRegKey renders an unambiguous registry key for name-sorted label
// slices.  Unlike the human-readable ShapeKey, every name is length-prefixed:
// degenerate label names (empty, or containing ',' / '|') must not alias two
// distinct layouts onto one registry entry — the fuzzer found exactly that,
// a {""} field shape colliding with the empty shape.
func shapeRegKey(fieldNames, tagNames []string) string {
	var b []byte
	for _, k := range fieldNames {
		b = append(append(strconv.AppendInt(b, int64(len(k)), 10), ':'), k...)
	}
	b = append(b, '|')
	for _, k := range tagNames {
		b = append(append(strconv.AppendInt(b, int64(len(k)), 10), ':'), k...)
	}
	return string(b)
}

// canonicalShape interns the layout for the given name-sorted label slices,
// which must not be mutated afterwards if the shape gets registered.
func canonicalShape(fields []labelID, fieldNames []string, tags []labelID, tagNames []string) *shape {
	key := shapeRegKey(fieldNames, tagNames)
	shapeRegMu.Lock()
	defer shapeRegMu.Unlock()
	if s, ok := shapeReg[key]; ok {
		return s
	}
	s := newShape(fields, fieldNames, tags, tagNames)
	if len(shapeReg) < maxShapes {
		shapeReg[key] = s
	}
	return s
}

// fieldSlot returns the slot index of a field by name.
func (s *shape) fieldSlot(name string) (int, bool) { return slotOf(s.fieldNames, name) }

// tagSlot returns the slot index of a tag by name.
func (s *shape) tagSlot(name string) (int, bool) { return slotOf(s.tagNames, name) }

// slotOf is the slot of name among the sorted names, -1 if it has none.
func slotOf(names []string, name string) (int, bool) {
	if i, ok := slices.BinarySearch(names, name); ok {
		return i, true
	}
	return -1, false
}

// slot returns the slot index of a label: a tag slot or a field slot.
func (s *shape) slot(l Label) (int, bool) {
	if l.IsTag {
		return s.tagSlot(l.Name)
	}
	return s.fieldSlot(l.Name)
}

// tagSlotID resolves a tag's slot by interned id — the form tag expressions
// and the split dispatcher use: the id resolves once, where the name is
// parsed, and the slot is an integer scan of a handful of ids per record.
func (s *shape) tagSlotID(id labelID) (int, bool) {
	i := slices.Index(s.tags, id)
	return i, i >= 0
}

// transition returns the layout after one add/remove, memoizing it — and the
// affected slot — on s.  For additions, pos is the slot the new label occupies
// in the target layout; for removals, the slot it vacated in s.
func (s *shape) transition(op uint8, name string) (next *shape, pos int) {
	tk := shapeTrans{op: op, id: internLabel(name)}
	t, ok := s.trans.load(tk)
	if !ok {
		t = s.trans.store(tk, s.buildTransition(op, tk.id, name))
	}
	return t.to, t.pos
}

// buildTransition computes the target layout of one transition and the slot
// it affects.
func (s *shape) buildTransition(op uint8, id labelID, name string) shapeStep {
	fields, fieldNames := slices.Clone(s.fields), slices.Clone(s.fieldNames)
	tags, tagNames := slices.Clone(s.tags), slices.Clone(s.tagNames)
	var pos int
	switch op {
	case transAddField:
		pos, _ = slices.BinarySearch(fieldNames, name)
		fields, fieldNames = slices.Insert(fields, pos, id), slices.Insert(fieldNames, pos, name)
	case transAddTag:
		pos, _ = slices.BinarySearch(tagNames, name)
		tags, tagNames = slices.Insert(tags, pos, id), slices.Insert(tagNames, pos, name)
	case transDelField:
		pos, _ = s.fieldSlot(name)
		fields, fieldNames = slices.Delete(fields, pos, pos+1), slices.Delete(fieldNames, pos, pos+1)
	case transDelTag:
		pos, _ = s.tagSlot(name)
		tags, tagNames = slices.Delete(tags, pos, pos+1), slices.Delete(tagNames, pos, pos+1)
	}
	return shapeStep{to: canonicalShape(fields, fieldNames, tags, tagNames), pos: pos}
}

// shapeForVariant interns the layout carrying exactly the labels of v.
func shapeForVariant(v Variant) *shape {
	sh := emptyShape
	for _, l := range v.Labels() {
		if l.IsTag {
			sh, _ = sh.transition(transAddTag, l.Name)
		} else {
			sh, _ = sh.transition(transAddField, l.Name)
		}
	}
	return sh
}
