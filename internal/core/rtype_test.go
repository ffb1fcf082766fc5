package core

import (
	"testing"
	"testing/quick"
)

func v(labels ...Label) Variant { return NewVariant(labels...) }

func TestSubtypingBasics(t *testing.T) {
	// {a,<b>,d} is a subtype of {a,<b>}: more labels = more specific.
	sub := v(Field("a"), Tag("b"), Field("d"))
	sup := v(Field("a"), Tag("b"))
	if !sub.SubtypeOf(sup) {
		t.Fatal("wider record must be a subtype")
	}
	if sup.SubtypeOf(sub) {
		t.Fatal("narrower record must not be a subtype")
	}
	if !sub.SubtypeOf(sub) {
		t.Fatal("subtyping must be reflexive")
	}
	// The empty variant is the top type.
	if !sub.SubtypeOf(v()) {
		t.Fatal("every record type is a subtype of {}")
	}
}

func TestFieldTagDistinct(t *testing.T) {
	if v(Field("x")).SubtypeOf(v(Tag("x"))) {
		t.Fatal("field x must not satisfy tag <x>")
	}
}

func TestMultivariantSubtyping(t *testing.T) {
	// {c} | {c,d,<e>}  ⊑  {c}
	x := RecType{v(Field("c")), v(Field("c"), Field("d"), Tag("e"))}
	y := RecType{v(Field("c"))}
	if !x.SubtypeOf(y) {
		t.Fatal("multivariant subtyping broken")
	}
	if y.SubtypeOf(RecType{v(Field("c"), Field("d"))}) {
		t.Fatal("{c} must not be a subtype of {c,d}")
	}
	// Empty multivariant is a subtype of anything.
	if !(RecType{}).SubtypeOf(y) {
		t.Fatal("empty multivariant")
	}
}

func TestVariantOps(t *testing.T) {
	a := v(Field("x"), Tag("t"))
	b := v(Field("y"))
	u := a.Union(b)
	if len(u) != 3 || !u.Has(Field("x")) || !u.Has(Field("y")) || !u.Has(Tag("t")) {
		t.Fatalf("union = %v", u)
	}
	if !a.Equal(v(Tag("t"), Field("x"))) {
		t.Fatal("Equal order-sensitive")
	}
	if a.Equal(b) {
		t.Fatal("unequal variants equal")
	}
}

func TestVariantString(t *testing.T) {
	s := v(Tag("t"), Field("b"), Field("a")).String()
	if s != "{a, b, <t>}" {
		t.Fatalf("String = %q", s)
	}
	if (RecType{}).String() != "{}" {
		t.Fatal("empty RecType string")
	}
	rt := RecType{v(Field("c")), v(Field("d"))}.String()
	if rt != "{c} | {d}" {
		t.Fatalf("RecType string = %q", rt)
	}
}

func genVariant(raw []uint8) Variant {
	names := []string{"a", "b", "c", "d"}
	out := Variant{}
	for _, r := range raw {
		l := Label{Name: names[int(r)%len(names)], IsTag: (r/4)%2 == 0}
		out[l] = struct{}{}
	}
	return out
}

// Property: subtyping is reflexive and transitive; union is an upper bound
// in the subset order and a lower bound in the subtype order.
func TestQuickSubtypingLaws(t *testing.T) {
	f := func(ra, rb, rc []uint8) bool {
		a, b, c := genVariant(ra), genVariant(rb), genVariant(rc)
		if !a.SubtypeOf(a) {
			return false
		}
		if a.SubtypeOf(b) && b.SubtypeOf(c) && !a.SubtypeOf(c) {
			return false
		}
		u := a.Union(b)
		// u has all labels of a and of b, hence is a subtype of both.
		if !u.SubtypeOf(a) || !u.SubtypeOf(b) {
			return false
		}
		// antisymmetry up to equality
		if a.SubtypeOf(b) && b.SubtypeOf(a) && !a.Equal(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
