package core

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestRecordBasics(t *testing.T) {
	r := NewRecord().SetField("board", []int{1, 2}).SetTag("k", 3)
	if v, ok := r.Field("board"); !ok || v == nil {
		t.Fatal("field lookup failed")
	}
	if v, ok := r.Tag("k"); !ok || v != 3 {
		t.Fatal("tag lookup failed")
	}
	if _, ok := r.Field("missing"); ok {
		t.Fatal("phantom field")
	}
	if _, ok := r.Tag("missing"); ok {
		t.Fatal("phantom tag")
	}
	if r.NumLabels() != 2 {
		t.Fatalf("NumLabels = %d", r.NumLabels())
	}
	if !r.HasLabel(Field("board")) || !r.HasLabel(Tag("k")) || r.HasLabel(Tag("board")) {
		t.Fatal("HasLabel confused fields and tags")
	}
}

func TestRecordMustAccessors(t *testing.T) {
	r := NewRecord().SetField("a", 1).SetTag("t", 2)
	if r.MustField("a") != 1 || r.MustTag("t") != 2 {
		t.Fatal("Must accessors broken")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MustField on absent label must panic")
			}
		}()
		r.MustField("zzz")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MustTag on absent label must panic")
			}
		}()
		r.MustTag("zzz")
	}()
}

func TestRecordDelete(t *testing.T) {
	r := NewRecord().SetField("a", 1).SetTag("t", 2)
	r.DeleteField("a")
	r.DeleteTag("t")
	if r.NumLabels() != 0 {
		t.Fatal("delete failed")
	}
}

func TestRecordCopyIsIndependent(t *testing.T) {
	r := NewRecord().SetField("a", 1).SetTag("t", 2)
	c := r.Copy()
	c.SetField("b", 3)
	c.SetTag("u", 4)
	if r.NumLabels() != 2 {
		t.Fatal("copy shares label maps")
	}
	if !c.Labels().SubtypeOf(r.Labels()) {
		t.Fatal("copy lost labels")
	}
}

// A record carries inline slots for two fields and four tags (Record.fbuf,
// Record.tbuf): a record that fits is one allocation, a larger one spills to
// the heap, and no record, copy or recycled arena record shares its slots
// with another.

var sinkRecord *Record

func TestRecordInlineSlotsAllocateOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping")
	}
	build := func(r *Record) *Record { return r.SetField("a", 1).SetTag("x", 1).SetTag("y", 2) }
	if n := testing.AllocsPerRun(100, func() { sinkRecord = build(NewRecord()) }); n != 1 {
		t.Errorf("NewRecord with a field and two tags: %v allocs, want 1", n)
	}
	// Two collections empty the arena's pool, so every acquire below is a
	// fresh record; they are held until the end so none comes back.
	recs := make([]*Record, 0, 101) // AllocsPerRun(100, f) calls f 101 times
	live := PoolStats().Live()
	runtime.GC()
	runtime.GC()
	n := testing.AllocsPerRun(100, func() { recs = append(recs, build(AcquireRecord())) })
	for _, r := range recs {
		ReleaseRecord(r)
	}
	if n > 1 {
		t.Errorf("AcquireRecord on an empty pool with a field and two tags: %v allocs, want 1", n)
	}
	if got := PoolStats().Live(); got != live {
		t.Errorf("arena live = %d after releasing every record, want %d", got, live)
	}
}

// spilled reports whether r's slots live outside the record.
func spilled(r *Record) bool {
	return len(r.fvals) > 0 && &r.fvals[0] != &r.fbuf[0] && len(r.tvals) > 0 && &r.tvals[0] != &r.tbuf[0]
}

func TestRecordInlineSlotsSpill(t *testing.T) {
	const want = "{a=0, b=1, c=2, <t>=0, <u>=1, <v>=2, <w>=3, <x>=4}"
	fill := func(r *Record) *Record {
		for i, f := range []string{"a", "b", "c"} {
			r.SetField(f, i)
		}
		for i, g := range []string{"t", "u", "v", "w", "x"} {
			r.SetTag(g, i)
		}
		return r
	}
	for name, r := range map[string]*Record{"NewRecord": fill(NewRecord()), "AcquireRecord": fill(AcquireRecord())} {
		c := r.Copy()
		// The arena's own path: an inline record acquired at the spilled
		// shape, written by slot.
		a := (*arenaFront)(nil).acquire(r.shape)
		copy(a.fvals, r.fvals)
		copy(a.tvals, r.tvals)
		for what, rec := range map[string]*Record{"record": r, "copy": c, "acquired at its shape": a} {
			if got := rec.String(); got != want {
				t.Errorf("%s %s = %s, want %s", name, what, got, want)
			}
			if !spilled(rec) {
				t.Errorf("%s %s: 3 fields and 5 tags did not spill", name, what)
			}
		}
		ReleaseRecord(r)
		ReleaseRecord(a)
	}
	if small := NewRecord().SetField("a", 1).SetTag("t", 1); spilled(small) || spilled(small.Copy()) {
		t.Error("a record of one field and one tag spilled")
	}
}

func TestRecordInlineSlotsDoNotAlias(t *testing.T) {
	for _, fields := range []int{1, 3} { // inline and spilled
		src := NewRecord()
		for i := 0; i < fields; i++ {
			src.SetField(string(rune('a'+i)), i).SetTag(string(rune('t'+i)), i)
		}
		want := src.String()
		c := src.Copy()
		c.SetField("a", "changed").SetTag("t", 99).DeleteTag("u")
		if got := src.String(); got != want {
			t.Fatalf("mutating a copy changed its source: %s, want %s", got, want)
		}
		// A copy taken from an arena record outlives the record's release:
		// another goroutine reads it while the record, recycled, is
		// re-acquired and written — which -race reports if they share slots.
		r := AcquireRecord().SetField("a", "x").SetTag("t", 1)
		for i := 1; i < fields; i++ {
			r.SetField(string(rune('a'+i)), i)
		}
		kept := r.Copy()
		keptWant := kept.String()
		ReleaseRecord(r)
		done := make(chan string)
		go func() {
			s := ""
			for i := 0; i < 100; i++ {
				s = kept.String()
			}
			done <- s
		}()
		for i := 0; i < 100; i++ {
			again := AcquireRecord().SetField("a", i).SetTag("t", i)
			ReleaseRecord(again)
		}
		if got := <-done; got != keptWant {
			t.Fatalf("a copy changed when its source was recycled: %s, want %s", got, keptWant)
		}
	}
}

func TestRecordString(t *testing.T) {
	r := NewRecord().SetField("b", 1).SetField("a", "x").SetTag("k", 7)
	s := r.String()
	if s != "{a=x, b=1, <k>=7}" {
		t.Fatalf("String = %q", s)
	}
	big := NewRecord().SetField("data", []int{1, 2, 3})
	if !strings.Contains(big.String(), "(") {
		t.Fatalf("non-scalar field should render as type: %q", big.String())
	}
}

func TestRecordLabels(t *testing.T) {
	r := NewRecord().SetField("a", 1).SetTag("t", 0)
	v := r.Labels()
	want := NewVariant(Field("a"), Tag("t"))
	if !v.Equal(want) {
		t.Fatalf("Labels = %v", v)
	}
}

func TestFieldAndTagNamesSorted(t *testing.T) {
	r := NewRecord().SetField("z", 0).SetField("a", 0).SetTag("m", 0).SetTag("b", 0)
	f := r.FieldNames()
	g := r.TagNames()
	if f[0] != "a" || f[1] != "z" || g[0] != "b" || g[1] != "m" {
		t.Fatalf("names unsorted: %v %v", f, g)
	}
}

// Property: Copy round-trips all labels and values.
func TestQuickRecordCopyRoundTrip(t *testing.T) {
	f := func(fields map[string]int, tags map[string]int) bool {
		r := NewRecord()
		for k, v := range fields {
			if k == "" {
				continue
			}
			r.SetField(k, v)
		}
		for k, v := range tags {
			if k == "" {
				continue
			}
			r.SetTag(k, v)
		}
		c := r.Copy()
		if !c.Labels().Equal(r.Labels()) {
			return false
		}
		for _, k := range r.FieldNames() {
			a, _ := r.Field(k)
			b, _ := c.Field(k)
			if a != b {
				return false
			}
		}
		for _, k := range r.TagNames() {
			a, _ := r.Tag(k)
			b, _ := c.Tag(k)
			if a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
