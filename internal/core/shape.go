package core

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

	trans atomic.Pointer[map[shapeTrans]shapeStep]
	mu    sync.Mutex // serializes transition/registry publication
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

// maxShapes bounds the global shape registry; maxShapeTrans bounds each
// shape's memoized transition map.  Real networks see a handful of shapes;
// the caps only matter to adversarial label-synthesizing workloads.
const (
	maxShapes     = 1 << 16
	maxShapeTrans = 1 << 8
)

var (
	shapeRegMu sync.Mutex
	shapeReg   = map[string]*shape{} // ShapeKey → shape
	shapeCount atomic.Int64
	emptyShape = newShape(nil, nil, nil, nil)
)

func init() {
	shapeReg[shapeRegKey(nil, nil)] = emptyShape
	shapeCount.Store(1)
}

// newShape builds a layout from name-sorted label slices (which it adopts).
func newShape(fields []labelID, fieldNames []string, tags []labelID, tagNames []string) *shape {
	s := &shape{
		fields: fields, fieldNames: fieldNames,
		tags: tags, tagNames: tagNames,
	}
	var b strings.Builder
	n := 1
	for _, k := range fieldNames {
		n += len(k) + 1
	}
	for _, k := range tagNames {
		n += len(k) + 1
	}
	b.Grow(n)
	for i, k := range fieldNames {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
	}
	b.WriteByte('|')
	for i, k := range tagNames {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
	}
	s.key = b.String()
	s.variant = make(Variant, len(fields)+len(tags))
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
	var b strings.Builder
	for _, k := range fieldNames {
		b.WriteString(strconv.Itoa(len(k)))
		b.WriteByte(':')
		b.WriteString(k)
	}
	b.WriteByte('|')
	for _, k := range tagNames {
		b.WriteString(strconv.Itoa(len(k)))
		b.WriteByte(':')
		b.WriteString(k)
	}
	return b.String()
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
	if shapeCount.Load() < maxShapes {
		shapeReg[key] = s
		shapeCount.Add(1)
	}
	return s
}

// fieldSlot returns the slot index of a field by name.
func (s *shape) fieldSlot(name string) (int, bool) {
	i := sort.SearchStrings(s.fieldNames, name)
	if i < len(s.fieldNames) && s.fieldNames[i] == name {
		return i, true
	}
	return -1, false
}

// tagSlot returns the slot index of a tag by name.
func (s *shape) tagSlot(name string) (int, bool) {
	i := sort.SearchStrings(s.tagNames, name)
	if i < len(s.tagNames) && s.tagNames[i] == name {
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
	for i, t := range s.tags {
		if t == id {
			return i, true
		}
	}
	return -1, false
}

// transition returns the layout after one add/remove, memoizing it — and the
// affected slot — on s.  For additions, pos is the slot the new label occupies
// in the target layout; for removals, the slot it vacated in s.
func (s *shape) transition(op uint8, name string) (next *shape, pos int) {
	tk := shapeTrans{op: op, id: internLabel(name)}
	if m := s.trans.Load(); m != nil {
		if t, ok := (*m)[tk]; ok {
			return t.to, t.pos
		}
	}
	step := s.buildTransition(op, tk.id, name)
	s.mu.Lock()
	old := s.trans.Load()
	var size int
	if old != nil {
		size = len(*old)
	}
	if size < maxShapeTrans {
		m := make(map[shapeTrans]shapeStep, size+1)
		if old != nil {
			for k, v := range *old {
				m[k] = v
			}
		}
		m[tk] = step
		s.trans.Store(&m)
	}
	s.mu.Unlock()
	return step.to, step.pos
}

// buildTransition computes the target layout of one transition and the slot
// it affects.
func (s *shape) buildTransition(op uint8, id labelID, name string) shapeStep {
	clone := func(ids []labelID, names []string) ([]labelID, []string) {
		return append([]labelID(nil), ids...), append([]string(nil), names...)
	}
	var pos int
	insert := func(ids []labelID, names []string) ([]labelID, []string) {
		pos = sort.SearchStrings(names, name)
		ids = append(ids, 0)
		copy(ids[pos+1:], ids[pos:])
		ids[pos] = id
		names = append(names, "")
		copy(names[pos+1:], names[pos:])
		names[pos] = name
		return ids, names
	}
	remove := func(ids []labelID, names []string) ([]labelID, []string) {
		ids = append(ids[:pos], ids[pos+1:]...)
		names = append(names[:pos], names[pos+1:]...)
		return ids, names
	}
	fields, fieldNames := clone(s.fields, s.fieldNames)
	tags, tagNames := clone(s.tags, s.tagNames)
	switch op {
	case transAddField:
		fields, fieldNames = insert(fields, fieldNames)
	case transAddTag:
		tags, tagNames = insert(tags, tagNames)
	case transDelField:
		pos, _ = s.fieldSlot(name)
		fields, fieldNames = remove(fields, fieldNames)
	case transDelTag:
		pos, _ = s.tagSlot(name)
		tags, tagNames = remove(tags, tagNames)
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
