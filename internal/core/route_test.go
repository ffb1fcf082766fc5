package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// routeBox builds an echo box whose signature consumes (and re-emits) the
// given labels.
func routeBox(name string, labels ...Label) Node {
	return NewBox(name, &BoxSignature{In: labels, Out: [][]Label{labels}},
		func(args []any, out *Emitter) error { return out.Out(1, args...) })
}

func TestShapeKeyCaching(t *testing.T) {
	r := NewRecord().SetField("b", 1).SetField("a", 2).SetTag("t", 3)
	if got, want := r.ShapeKey(), "a,b|t"; got != want {
		t.Fatalf("ShapeKey = %q, want %q", got, want)
	}
	sh := r.shapeRef()
	r.SetField("a", 9) // value-only update keeps the interned shape
	if r.shapeRef() != sh {
		t.Fatal("value-only SetField changed the interned shape")
	}
	r.SetTag("u", 1)
	if got, want := r.ShapeKey(), "a,b|t,u"; got != want {
		t.Fatalf("ShapeKey after SetTag = %q, want %q", got, want)
	}
	r.DeleteField("a")
	if got, want := r.ShapeKey(), "b|t,u"; got != want {
		t.Fatalf("ShapeKey after DeleteField = %q, want %q", got, want)
	}
	c := r.Copy()
	if got := c.ShapeKey(); got != r.ShapeKey() {
		t.Fatalf("Copy shape = %q, want %q", got, r.ShapeKey())
	}
	// Flow inheritance mutates label maps directly; it must invalidate too.
	dst := NewRecord().SetField("x", 1)
	_ = dst.ShapeKey()
	inheritByName(dst, r, nil)
	if got, want := dst.ShapeKey(), "b,x|t,u"; got != want {
		t.Fatalf("ShapeKey after inheritByName = %q, want %q", got, want)
	}
	if got, want := NewRecord().ShapeKey(), "|"; got != want {
		t.Fatalf("empty ShapeKey = %q, want %q", got, want)
	}
}

// TestDispatchMatchesLegacy drives the compiled dispatch table and the
// per-record scoring loop over randomized branch sets and records, in both
// det and nondet modes, asserting decision-for-decision equality (including
// the rotation sequence over ties).
func TestDispatchMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	labels := []Label{Field("a"), Field("b"), Field("c"), Tag("t"), Tag("u")}
	randVariant := func() Variant {
		v := Variant{}
		for _, l := range labels {
			if rng.Intn(2) == 0 {
				v[l] = struct{}{}
			}
		}
		return v
	}
	for trial := 0; trial < 200; trial++ {
		det := trial%2 == 0
		nb := 2 + rng.Intn(5)
		branches := make([]Node, nb)
		for i := range branches {
			if rng.Intn(4) == 0 {
				// A guarded filter branch: attracts records with <t> odd.
				branches[i] = NewFilter(&FilterSpec{
					Pattern: Pattern{Variant: randVariant().Union(NewVariant(Tag("t"))),
						Guard: MustParseTagExpr("<t> % 2")},
				})
				continue
			}
			branches[i] = routeBox(fmt.Sprintf("b%d", i), randVariant().Labels()...)
		}
		table := buildRouteTable(det, branches)
		scorers := legacyScorers(branches)
		var rrT routing
		rrL := 0
		for rec := 0; rec < 50; rec++ {
			r := NewRecord()
			for _, l := range labels {
				if rng.Intn(2) == 0 {
					if l.IsTag {
						r.SetTag(l.Name, rng.Intn(4))
					} else {
						r.SetField(l.Name, rec)
					}
				}
			}
			got := table.dispatch(r, &rrT)
			want := legacyDispatch(scorers, r, det, &rrL)
			if got != want {
				t.Fatalf("trial %d det=%v rec %s: table=%d legacy=%d", trial, det, r, got, want)
			}
			if rrT.rr != rrL {
				t.Fatalf("trial %d: rotation diverged: table=%d legacy=%d", trial, rrT.rr, rrL)
			}
		}
	}
}

func TestDispatchMemoizesPerShape(t *testing.T) {
	branches := []Node{
		routeBox("ab", Field("a"), Field("b")),
		routeBox("ac", Field("a"), Field("c")),
	}
	table := buildRouteTable(false, branches)
	var rr routing
	for i := 0; i < 100; i++ {
		r := NewRecord().SetField("a", i).SetField("b", i)
		if got := table.dispatch(r, &rr); got != 0 {
			t.Fatalf("dispatch = %d, want 0", got)
		}
	}
	if n := table.size.Load(); n != 1 {
		t.Fatalf("memo entries = %d, want 1 (one shape)", n)
	}
}

// A guarded branch's guard must be evaluated per record even when the shape
// is memoized: records of one shape may route differently by tag value.
func TestGuardedDispatchNotOverMemoized(t *testing.T) {
	bothPlans(t, testGuardedDispatchNotOverMemoized)
}

func testGuardedDispatchNotOverMemoized(t *testing.T, m execMode) {
	even := NewFilter(&FilterSpec{
		Pattern: Pattern{Variant: NewVariant(Tag("n")), Guard: MustParseTagExpr("!(<n> % 2)")},
		Outputs: [][]FilterItem{{{Name: "n", IsTag: true, Expr: MustParseTagExpr("<n>")},
			{Name: "even", IsTag: true, Expr: MustParseTagExpr("1")}}},
	})
	odd := NewFilter(&FilterSpec{
		Pattern: Pattern{Variant: NewVariant(Tag("n")), Guard: MustParseTagExpr("<n> % 2")},
		Outputs: [][]FilterItem{{{Name: "n", IsTag: true, Expr: MustParseTagExpr("<n>")},
			{Name: "odd", IsTag: true, Expr: MustParseTagExpr("1")}}},
	})
	net := Parallel(even, odd)
	var inputs []*Record
	for i := 0; i < 10; i++ {
		inputs = append(inputs, NewRecord().SetTag("n", i))
	}
	out, _, err := m.RunAll(context.Background(), net, inputs)
	if err != nil || len(out) != 10 {
		t.Fatalf("out=%d err=%v", len(out), err)
	}
	for _, r := range out {
		n := r.MustTag("n")
		_, isEven := r.Tag("even")
		if isEven != (n%2 == 0) {
			t.Fatalf("record %s misrouted", r)
		}
	}
}

func TestNoRouteErrorTyped(t *testing.T) { bothPlans(t, testNoRouteErrorTyped) }

func testNoRouteErrorTyped(t *testing.T, m execMode) {
	net := Parallel(routeBox("ab", Field("a"), Field("b")), routeBox("c", Field("c")))
	var handled error
	h := m.Start(context.Background(), net, WithErrorHandler(func(err error) { handled = err }))
	if err := h.Send(NewRecord().SetTag("zzz", 1)); err != nil {
		t.Fatal(err)
	}
	h.Close()
	for range h.Out() {
	}
	h.Wait()

	for name, err := range map[string]error{"handler": handled, "Handle.Err": h.Err()} {
		if err == nil {
			t.Fatalf("%s: no error surfaced", name)
		}
		if !errors.Is(err, ErrNoRoute) {
			t.Fatalf("%s: error %v is not ErrNoRoute", name, err)
		}
		var nre *NoRouteError
		if !errors.As(err, &nre) {
			t.Fatalf("%s: error %T is not *NoRouteError", name, err)
		}
		if !nre.Shape.Equal(NewVariant(Tag("zzz"))) {
			t.Fatalf("%s: shape = %v", name, nre.Shape)
		}
		if len(nre.Branches) != 2 || !nre.Branches[0][0].Equal(NewVariant(Field("a"), Field("b"))) {
			t.Fatalf("%s: branches = %v", name, nre.Branches)
		}
	}
	if h.Stats().Counter("runtime.errors") != 1 {
		t.Fatalf("runtime.errors = %d", h.Stats().Counter("runtime.errors"))
	}
}

// wideParallel builds a B-branch parallel net for the routing benchmarks:
// every branch consumes a common field plus its own, so scoring must
// consider every branch for every record.
func wideParallel(b int) (Node, []*Record) {
	branches := make([]Node, b)
	for i := range branches {
		branches[i] = routeBox(fmt.Sprintf("w%d", i), Field("a"), Field(fmt.Sprintf("x%d", i)))
	}
	recs := make([]*Record, 64)
	for i := range recs {
		recs[i] = NewRecord().SetField("a", i).SetField(fmt.Sprintf("x%d", i%b), i)
	}
	return Parallel(branches...), recs
}

// BenchmarkRouting compares the shape-keyed dispatch table with the
// per-record scoring loop it replaced (oracle_test.go), on wide parallel
// combinators — the E16 microbenchmark.  "dispatch" measures routing
// decisions alone; "net" runs the full combinator through its plan.
func BenchmarkRouting(b *testing.B) {
	for _, width := range []int{8, 16, 32} {
		net, recs := wideParallel(width)
		pn := net.(*parallelNode)
		table := pn.table
		scorers := legacyScorers(pn.branches)
		b.Run(fmt.Sprintf("dispatch/table-%d", width), func(b *testing.B) {
			var rr routing
			for i := 0; i < b.N; i++ {
				if table.dispatch(recs[i%len(recs)], &rr) < 0 {
					b.Fatal("no route")
				}
			}
		})
		b.Run(fmt.Sprintf("dispatch/legacy-%d", width), func(b *testing.B) {
			rr := 0
			for i := 0; i < b.N; i++ {
				if legacyDispatch(scorers, recs[i%len(recs)], false, &rr) < 0 {
					b.Fatal("no route")
				}
			}
		})
	}
	for _, width := range []int{8, 16} {
		net, recs := wideParallel(width)
		plan := MustCompile(net)
		b.Run(fmt.Sprintf("net/table-%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, _, err := plan.RunAll(context.Background(), recs)
				if err != nil || len(out) != len(recs) {
					b.Fatalf("out=%d err=%v", len(out), err)
				}
			}
		})
	}
}
