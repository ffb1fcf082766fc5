package core

import (
	"context"
	"testing"
	"testing/quick"
)

// Properties of flow inheritance (§4): excess labels survive any box or
// filter unchanged; consumed labels never leak; explicit outputs always win
// over inherited labels.

func randomRecord(fieldBits, tagBits uint8) *Record {
	names := []string{"p", "q", "r", "s"}
	rec := NewRecord()
	for i, n := range names {
		if fieldBits&(1<<i) != 0 {
			rec.SetField(n, i)
		}
		if tagBits&(1<<i) != 0 {
			rec.SetTag(n, i*10)
		}
	}
	return rec
}

// Property: a box consuming nothing of the excess labels passes all of them
// through to every output variant that does not redefine them.
func TestQuickBoxInheritanceProperty(t *testing.T) { eachCell(t, testQuickBoxInheritanceProperty) }

func testQuickBoxInheritanceProperty(t *testing.T, m cell) {
	box := NewBox("probe", MustParseSignature("(in) -> (out)"),
		func(args []any, out *Emitter) error {
			return out.Out(1, "result")
		})
	f := func(fieldBits, tagBits uint8) bool {
		rec := randomRecord(fieldBits, tagBits).SetField("in", "x")
		want := rec.Copy()
		out, _, err := m.RunAll(context.Background(), box, []*Record{rec})
		if err != nil || len(out) != 1 {
			return false
		}
		got := out[0]
		// consumed label gone
		if _, ok := got.Field("in"); ok {
			return false
		}
		// output label present
		if v, _ := got.Field("out"); v != "result" {
			return false
		}
		// every excess label inherited with its value
		for _, n := range want.FieldNames() {
			if n == "in" {
				continue
			}
			wv, _ := want.Field(n)
			gv, ok := got.Field(n)
			if !ok || gv != wv {
				return false
			}
		}
		for _, n := range want.TagNames() {
			wv, _ := want.Tag(n)
			gv, ok := got.Tag(n)
			if !ok || gv != wv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}

// Property: explicit output labels shadow inheritance — a record carrying
// label "out" still gets the box's own "out" value.
func TestQuickInheritanceNoOverwriteProperty(t *testing.T) {
	eachCell(t, testQuickInheritanceNoOverwriteProperty)
}

func testQuickInheritanceNoOverwriteProperty(t *testing.T, m cell) {
	box := NewBox("probe", MustParseSignature("(in) -> (out)"),
		func(args []any, out *Emitter) error {
			return out.Out(1, "fresh")
		})
	f := func(v uint8) bool {
		rec := NewRecord().SetField("in", 1).SetField("out", int(v))
		out, _, err := m.RunAll(context.Background(), box, []*Record{rec})
		if err != nil || len(out) != 1 {
			return false
		}
		got, _ := out[0].Field("out")
		return got == "fresh"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 32}); err != nil {
		t.Fatal(err)
	}
}

// Property: the identity filter {} -> {} plus inheritance is the identity
// on every record.
func TestQuickEmptyFilterIsIdentity(t *testing.T) { eachCell(t, testQuickEmptyFilterIsIdentity) }

func testQuickEmptyFilterIsIdentity(t *testing.T, m cell) {
	filt := MustFilter("{} -> {}")
	f := func(fieldBits, tagBits uint8) bool {
		rec := randomRecord(fieldBits, tagBits)
		want := rec.Copy()
		out, _, err := m.RunAll(context.Background(), filt, []*Record{rec})
		if err != nil || len(out) != 1 {
			return false
		}
		got := out[0]
		if !got.Labels().Equal(want.Labels()) {
			return false
		}
		for _, n := range want.TagNames() {
			wv, _ := want.Tag(n)
			gv, _ := got.Tag(n)
			if wv != gv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}

// Property: two filters composed serially behave like their composition —
// tag arithmetic chains associate.
func TestQuickFilterComposition(t *testing.T) { eachCell(t, testQuickFilterComposition) }

func testQuickFilterComposition(t *testing.T, m cell) {
	f1 := MustFilter("{<n>} -> {<n>=<n>*2}")
	f2 := MustFilter("{<n>} -> {<n>=<n>+3}")
	composed := MustFilter("{<n>} -> {<n>=<n>*2+3}")
	f := func(nRaw int16) bool {
		n := int(nRaw)
		a, _, err1 := m.RunAll(context.Background(), Serial(f1, f2),
			[]*Record{NewRecord().SetTag("n", n)})
		b, _, err2 := m.RunAll(context.Background(), composed,
			[]*Record{NewRecord().SetTag("n", n)})
		if err1 != nil || err2 != nil || len(a) != 1 || len(b) != 1 {
			return false
		}
		av, _ := a[0].Tag("n")
		bv, _ := b[0].Tag("n")
		return av == bv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: subtype routing — a record satisfying the more specific branch
// never routes to the less specific one.
func TestQuickBestMatchSpecificity(t *testing.T) { eachCell(t, testQuickBestMatchSpecificity) }

func testQuickBestMatchSpecificity(t *testing.T, m cell) {
	f := func(extraBits uint8) bool {
		general := NewBox("g", MustParseSignature("(a) -> (a,<viaG>)"),
			func(args []any, out *Emitter) error { return out.Out(1, args[0], 1) })
		specific := NewBox("s", MustParseSignature("(a,b) -> (a,<viaS>)"),
			func(args []any, out *Emitter) error { return out.Out(1, args[0], 1) })
		rec := NewRecord().SetField("a", 1).SetField("b", 2)
		for i := 0; i < 3; i++ {
			if extraBits&(1<<i) != 0 {
				rec.SetTag([]string{"x", "y", "z"}[i], i)
			}
		}
		out, _, err := m.RunAll(context.Background(), Parallel(general, specific), []*Record{rec})
		if err != nil || len(out) != 1 {
			return false
		}
		_, viaS := out[0].Tag("viaS")
		return viaS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 32}); err != nil {
		t.Fatal(err)
	}
}
