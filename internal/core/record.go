// Package core implements the S-Net coordination runtime — the paper's
// primary contribution (§4).
//
// S-Net turns functions into asynchronously executed, stateless
// stream-processing components ("boxes") connected by typed streams of
// records.  Records are non-recursive label/value collections: *fields*
// carry values that are entirely opaque to the coordination layer, *tags*
// carry integers visible to both layers.  Networks are composed from four
// combinators — serial composition (..), parallel composition (||), serial
// replication (**) and parallel replication (!!) — together with their
// deterministic single-symbol variants (|, *, !), housekeeping filters, and
// (as an S-Net language extension beyond the paper) synchrocells.
//
// Streams are bounded channels of frames (stream.go).  A run of sequential
// stages — filters, taps, synchrocells, boxes invoked one call at a time, a
// dispatcher below another — is one goroutine's loop (fuse.go), and so is a
// dispatcher, stepping the branches that are such runs; a merger and a box
// found worth invoking concurrently have goroutines of their own.
// Records are addressed by slot: what a node builds is compiled per input
// shape (prog.go), and the by-name methods below are the API of user code.
package core

import (
	"fmt"
	"strings"
)

// Record is an S-Net record: a set of labelled fields (opaque values) and
// tags (integers).  Records are not safe for concurrent mutation; the
// runtime hands each record to exactly one component at a time, which is the
// S-Net data-flow discipline.
//
// Internally a record is a pointer to an interned shape (the label set with
// a canonical slot layout, see shape.go) plus two flat value arrays aligned
// with the shape's slots.  Records of the same type share one layout, which
// is what the routing tables and slot programs key their memos on; the
// methods here find a slot by searching the layout's sorted names.
type Record struct {
	shape *shape
	fvals []any // field values, aligned with shape.fields
	tvals []int // tag values, aligned with shape.tags
	// pooled marks records acquired from the transport's record arena
	// (arena.go): only those return to the pool on release.  Records built
	// with NewRecord stay caller-owned — callers routinely keep and reuse
	// them — so releasing one is a no-op.
	pooled bool
}

// NewRecord returns an empty record.
func NewRecord() *Record {
	return &Record{shape: emptyShape}
}

// SetField associates a field label with a value and returns the record for
// chaining.
func (r *Record) SetField(name string, v any) *Record {
	if i, ok := r.shape.fieldSlot(name); ok {
		r.fvals[i] = v
		return r
	}
	next, pos := r.shape.transition(transAddField, name)
	r.shape = next
	r.fvals = append(r.fvals, nil)
	copy(r.fvals[pos+1:], r.fvals[pos:])
	r.fvals[pos] = v
	return r
}

// SetTag associates a tag label with an integer and returns the record for
// chaining.
func (r *Record) SetTag(name string, v int) *Record {
	if i, ok := r.shape.tagSlot(name); ok {
		r.tvals[i] = v
		return r
	}
	next, pos := r.shape.transition(transAddTag, name)
	r.shape = next
	r.tvals = append(r.tvals, 0)
	copy(r.tvals[pos+1:], r.tvals[pos:])
	r.tvals[pos] = v
	return r
}

// Field returns the value of a field and whether it is present.
func (r *Record) Field(name string) (any, bool) {
	if i, ok := r.shape.fieldSlot(name); ok {
		return r.fvals[i], true
	}
	return nil, false
}

// MustField returns the value of a field, panicking if absent (used by box
// implementations whose signature guarantees presence).
func (r *Record) MustField(name string) any {
	v, ok := r.Field(name)
	if !ok {
		panic(fmt.Sprintf("core: record %v has no field %q", r, name))
	}
	return v
}

// Tag returns the value of a tag and whether it is present.
func (r *Record) Tag(name string) (int, bool) {
	if i, ok := r.shape.tagSlot(name); ok {
		return r.tvals[i], true
	}
	return 0, false
}

// MustTag returns the value of a tag, panicking if absent.
func (r *Record) MustTag(name string) int {
	v, ok := r.Tag(name)
	if !ok {
		panic(fmt.Sprintf("core: record %v has no tag <%s>", r, name))
	}
	return v
}

// DeleteField removes a field if present.
func (r *Record) DeleteField(name string) {
	if _, ok := r.shape.fieldSlot(name); !ok {
		return
	}
	next, pos := r.shape.transition(transDelField, name)
	r.shape = next
	r.fvals = append(r.fvals[:pos], r.fvals[pos+1:]...)
}

// DeleteTag removes a tag if present.
func (r *Record) DeleteTag(name string) {
	if _, ok := r.shape.tagSlot(name); !ok {
		return
	}
	next, pos := r.shape.transition(transDelTag, name)
	r.shape = next
	r.tvals = append(r.tvals[:pos], r.tvals[pos+1:]...)
}

// HasLabel reports whether the record carries the given label.
func (r *Record) HasLabel(l Label) bool {
	_, ok := r.shape.slot(l)
	return ok
}

// FieldNames returns the sorted field labels.
func (r *Record) FieldNames() []string {
	return append([]string(nil), r.shape.fieldNames...)
}

// TagNames returns the sorted tag labels.
func (r *Record) TagNames() []string {
	return append([]string(nil), r.shape.tagNames...)
}

// NumLabels returns the total number of labels.
func (r *Record) NumLabels() int {
	return len(r.shape.fields) + len(r.shape.tags)
}

// Labels returns the record's type: the set of all its labels.
func (r *Record) Labels() Variant {
	v := make(Variant, r.NumLabels())
	for l := range r.shape.variant {
		v[l] = struct{}{}
	}
	return v
}

// Copy returns a shallow copy: field values are shared (they are opaque to
// S-Net and treated as immutable by convention), the slot arrays are fresh.
func (r *Record) Copy() *Record {
	return &Record{
		shape: r.shape,
		fvals: append([]any(nil), r.fvals...),
		tvals: append([]int(nil), r.tvals...),
	}
}

// ShapeKey returns the canonical rendering of the record's label set —
// sorted field names, '|', sorted tag names.  Two records have the same
// ShapeKey iff they have the same type (Labels).  With interned shapes the
// key is precomputed on the shared layout, so this is a pointer chase; the
// routing tables themselves key on the shape pointer and never touch it.
func (r *Record) ShapeKey() string { return r.shape.key }

// String renders the record as {field=value, ..., <tag>=n, ...} with sorted
// labels; large field values are elided to their type.
func (r *Record) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, k := range r.shape.fieldNames {
		if !first {
			b.WriteString(", ")
		}
		first = false
		switch v := r.fvals[i].(type) {
		case int, int64, float64, bool, string:
			fmt.Fprintf(&b, "%s=%v", k, v)
		default:
			fmt.Fprintf(&b, "%s=(%T)", k, v)
		}
	}
	for i, k := range r.shape.tagNames {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "<%s>=%d", k, r.tvals[i])
	}
	b.WriteByte('}')
	return b.String()
}
