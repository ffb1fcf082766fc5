package core

import (
	"sort"
	"strings"
)

// Label names a field or tag.  Tags are written <name> in the surface
// syntax and are distinguished structurally here.
type Label struct {
	Name  string
	IsTag bool
}

// Field returns a field label.
func Field(name string) Label { return Label{Name: name} }

// Tag returns a tag label.
func Tag(name string) Label { return Label{Name: name, IsTag: true} }

func (l Label) String() string {
	if l.IsTag {
		return "<" + l.Name + ">"
	}
	return l.Name
}

// Variant is a record type: a set of labels.  Structural subtyping (§4):
// a record type t1 is a subtype of t2 iff t2 ⊆ t1 — records with more
// labels are more specific.
type Variant map[Label]struct{}

// NewVariant builds a variant from labels.
func NewVariant(labels ...Label) Variant {
	v := make(Variant, len(labels))
	for _, l := range labels {
		v[l] = struct{}{}
	}
	return v
}

// Has reports membership.
func (v Variant) Has(l Label) bool {
	_, ok := v[l]
	return ok
}

// SubsetOf reports whether every label of v appears in w.
func (v Variant) SubsetOf(w Variant) bool {
	if len(v) > len(w) {
		return false
	}
	for l := range v {
		if !w.Has(l) {
			return false
		}
	}
	return true
}

// SubtypeOf reports the S-Net record subtyping relation: v ⊑ w iff w ⊆ v.
func (v Variant) SubtypeOf(w Variant) bool { return w.SubsetOf(v) }

// Union returns the union of two variants.
func (v Variant) Union(w Variant) Variant {
	out := make(Variant, len(v)+len(w))
	for l := range v {
		out[l] = struct{}{}
	}
	for l := range w {
		out[l] = struct{}{}
	}
	return out
}

// Equal reports set equality.
func (v Variant) Equal(w Variant) bool { return v.SubsetOf(w) && w.SubsetOf(v) }

// Labels returns the sorted labels (fields first, then tags, each sorted by
// name) for deterministic rendering.
func (v Variant) Labels() []Label {
	out := make([]Label, 0, len(v))
	for l := range v {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].IsTag != out[j].IsTag {
			return !out[i].IsTag
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func (v Variant) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range v.Labels() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(l.String())
	}
	b.WriteByte('}')
	return b.String()
}

// RecType is a multivariant record type: a disjunction of variants.
type RecType []Variant

// SubtypeOf implements multivariant subtyping (§4): x ⊑ y iff every variant
// of x is a subtype of some variant of y.
func (x RecType) SubtypeOf(y RecType) bool {
	for _, v := range x {
		ok := false
		for _, w := range y {
			if v.SubtypeOf(w) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Union concatenates two multivariant types.
func (x RecType) Union(y RecType) RecType {
	out := make(RecType, 0, len(x)+len(y))
	out = append(out, x...)
	out = append(out, y...)
	return out
}

func (x RecType) String() string {
	if len(x) == 0 {
		return "{}"
	}
	parts := make([]string, len(x))
	for i, v := range x {
		parts[i] = v.String()
	}
	return strings.Join(parts, " | ")
}
