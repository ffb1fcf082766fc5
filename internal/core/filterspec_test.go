package core

import (
	"context"
	"testing"
)

// The paper's §4 filter example:
// [{a,b,<c>} -> {a,z=a,<t>}; {b,a=b,<c>=<c>+1}]
func TestPaperFilterExample(t *testing.T) {
	f := MustParseFilter("[{a,b,<c>} -> {a,z=a,<t>}; {b,a=b,<c>=<c>+1}]")
	rec := NewRecord().SetField("a", "A").SetField("b", "B").SetTag("c", 9)
	outs, err := f.Apply(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("got %d records", len(outs))
	}
	// First record: field a (original), field z (same value), tag <t>=0.
	r1 := outs[0]
	if a, _ := r1.Field("a"); a != "A" {
		t.Fatalf("r1.a = %v", a)
	}
	if z, _ := r1.Field("z"); z != "A" {
		t.Fatalf("r1.z = %v", z)
	}
	if tv, ok := r1.Tag("t"); !ok || tv != 0 {
		t.Fatalf("r1.<t> = %v %v", tv, ok)
	}
	if _, ok := r1.Field("b"); ok {
		t.Fatal("r1 must not carry b (in pattern, not in spec)")
	}
	if _, ok := r1.Tag("c"); ok {
		t.Fatal("r1 must not carry <c>")
	}
	// Second record: b, a=b, <c> incremented.
	r2 := outs[1]
	if b, _ := r2.Field("b"); b != "B" {
		t.Fatalf("r2.b = %v", b)
	}
	if a, _ := r2.Field("a"); a != "B" {
		t.Fatalf("r2.a = %v (must be renamed from b)", a)
	}
	if c, _ := r2.Tag("c"); c != 10 {
		t.Fatalf("r2.<c> = %d", c)
	}
}

// Fig. 2's filter {} -> {<k>=1} relies on flow inheritance: fields board and
// opts pass through although they do not occur in the filter.
func TestFilterFlowInheritance(t *testing.T) {
	f := MustParseFilter("{} -> {<k>=1}")
	rec := NewRecord().SetField("board", "B").SetField("opts", "O")
	outs, err := f.Apply(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("got %d records", len(outs))
	}
	o := outs[0]
	if k, _ := o.Tag("k"); k != 1 {
		t.Fatalf("<k> = %d", k)
	}
	if b, ok := o.Field("board"); !ok || b != "B" {
		t.Fatal("board must flow-inherit")
	}
	if _, ok := o.Field("opts"); !ok {
		t.Fatal("opts must flow-inherit")
	}
}

// Inheritance must not overwrite labels the output already carries.
func TestFilterInheritanceNoOverwrite(t *testing.T) {
	f := MustParseFilter("{<k>} -> {<k>=<k>%4}")
	rec := NewRecord().SetTag("k", 9).SetField("x", 1)
	outs, err := f.Apply(rec)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := outs[0].Tag("k"); k != 1 {
		t.Fatalf("<k> = %d, want 9%%4", k)
	}
	if _, ok := outs[0].Field("x"); !ok {
		t.Fatal("x must inherit")
	}
}

func TestFilterBareTagCopyAndInit(t *testing.T) {
	// <c> in pattern → copied; <fresh> not in pattern → zero.
	f := MustParseFilter("{<c>} -> {<c>, <fresh>}")
	outs, err := f.Apply(NewRecord().SetTag("c", 5))
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := outs[0].Tag("c"); c != 5 {
		t.Fatalf("<c> = %d", c)
	}
	if fr, ok := outs[0].Tag("fresh"); !ok || fr != 0 {
		t.Fatalf("<fresh> = %d %v", fr, ok)
	}
}

func TestFilterMultipleOutputsShareNothing(t *testing.T) {
	f := MustParseFilter("{a} -> {a}; {a}")
	outs, err := f.Apply(NewRecord().SetField("a", 1).SetTag("extra", 7))
	if err != nil {
		t.Fatal(err)
	}
	outs[0].SetTag("mut", 1)
	if _, ok := outs[1].Tag("mut"); ok {
		t.Fatal("output records alias each other")
	}
	if e, _ := outs[1].Tag("extra"); e != 7 {
		t.Fatal("inheritance missing on second record")
	}
}

func TestFilterEmptyOutputListDiscards(t *testing.T) {
	f, err := ParseFilter("[{x} -> ]")
	if err != nil {
		t.Fatal(err)
	}
	outs, err := f.Apply(NewRecord().SetField("x", 1))
	if err != nil || len(outs) != 0 {
		t.Fatalf("outs = %v, err = %v", outs, err)
	}
}

func TestFilterParseValidation(t *testing.T) {
	// Items must reference pattern labels.
	for _, src := range []string{
		"{a} -> {b}",          // b not in pattern
		"{a} -> {x=b}",        // source b not in pattern
		"{a} -> {<t>=<u>}",    // tag u not in pattern
		"[{a} -> {a}",         // unclosed bracket
		"{a} -> {a=}",         // missing source
		"{a} -> {a} trailing", // trailing tokens
		"{a} -> {2}",          // not an item
	} {
		if _, err := ParseFilter(src); err == nil {
			t.Fatalf("%q: want error", src)
		}
	}
}

func TestFilterOutTypeAndString(t *testing.T) {
	f := MustParseFilter("[{a,<c>} -> {a,<t>}; {<c>=<c>+1}]")
	ot := f.OutType()
	if len(ot) != 2 {
		t.Fatalf("OutType = %v", ot)
	}
	if !ot[0].Equal(v(Field("a"), Tag("t"))) {
		t.Fatalf("OutType[0] = %v", ot[0])
	}
	// String must reparse.
	if _, err := ParseFilter(f.String()); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
}

func TestFilterGuardedPattern(t *testing.T) {
	f := MustParseFilter("{<k>} | <k> > 2 -> {<k>=0}")
	if !f.Pattern.Matches(NewRecord().SetTag("k", 3)) {
		t.Fatal("guard true must match")
	}
	if f.Pattern.Matches(NewRecord().SetTag("k", 1)) {
		t.Fatal("guard false must not match")
	}
}

func TestFilterApplyMissingFieldError(t *testing.T) {
	f := MustParseFilter("{a} -> {a}")
	// Pattern says field a, record only has tag <a>; Apply must error.
	if _, err := f.Apply(NewRecord().SetTag("a", 1)); err == nil {
		t.Fatal("want error for missing field")
	}
}

// TestHideTags: hiding a tag is a filter that consumes it — the rest of the
// record is inherited, and a record without the tag passes unchanged.
func TestHideTags(t *testing.T) { eachCell(t, testHideTags) }

func testHideTags(t *testing.T, m cell) {
	n := Serial(incBox("h", 1), MustFilter("{<aux>} -> {}"), MustFilter("{<absent>} -> {}"))
	out, _, err := m.RunAll(context.Background(),
		n, []*Record{NewRecord().SetTag("n", 1).SetTag("aux", 9).SetTag("keep", 3)})
	if err != nil || len(out) != 1 {
		t.Fatalf("out=%d err=%v", len(out), err)
	}
	if _, ok := out[0].Tag("aux"); ok {
		t.Fatalf("aux survived: %v", out[0])
	}
	if v, _ := out[0].Tag("keep"); v != 3 {
		t.Fatalf("keep lost: %v", out[0])
	}
	if v, _ := out[0].Tag("n"); v != 2 {
		t.Fatalf("n: %v", out[0])
	}
}
