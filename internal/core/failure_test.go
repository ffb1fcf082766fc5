package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// Failure injection inside combinators: a panicking box must lose only the
// poisoned records while the network keeps serving the rest.

func poisonBox(name string, bad int) Node {
	return NewBox(name, MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			n := args[0].(int)
			if n == bad {
				panic("poison")
			}
			return out.Out(1, n)
		})
}

func TestPanicInsideSplit(t *testing.T) { bothPlans(t, testPanicInsideSplit) }

func testPanicInsideSplit(t *testing.T, m execMode) {
	var errs int32
	n := NamedSplit("w", poisonBox("p", 7), "k")
	inputs := seqInputs(20, func(i int, r *Record) { r.SetTag("n", i).SetTag("k", i%4) })
	out, stats, err := m.RunAll(context.Background(), n, inputs,
		WithErrorHandler(func(error) { atomic.AddInt32(&errs, 1) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 19 {
		t.Fatalf("got %d records, want 19 survivors", len(out))
	}
	if errs != 1 || stats.Counter("box.p.panics") != 1 {
		t.Fatalf("errs=%d panics=%d", errs, stats.Counter("box.p.panics"))
	}
}

func TestPanicInsideStarChain(t *testing.T) { bothPlans(t, testPanicInsideStarChain) }

func testPanicInsideStarChain(t *testing.T, m execMode) {
	// Poison triggers deep in the chain: records with n==2 die at the
	// third stage; others complete.
	bomb := NewBox("bomb", MustParseSignature("(<n>,<depth>) -> (<n>,<depth>) | (<n>,<done>)"),
		func(args []any, out *Emitter) error {
			n, depth := args[0].(int), args[1].(int)
			if n == 2 && depth == 2 {
				panic("deep poison")
			}
			if depth >= 4 {
				return out.Out(2, n, 1)
			}
			return out.Out(1, n, depth+1)
		})
	var errs int32
	net := NamedStar("loop", bomb, MustParsePattern("{<done>}"))
	inputs := seqInputs(5, func(i int, r *Record) { r.SetTag("n", i).SetTag("depth", 0) })
	out, _, err := m.RunAll(context.Background(), net, inputs,
		WithErrorHandler(func(error) { atomic.AddInt32(&errs, 1) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 || errs != 1 {
		t.Fatalf("out=%d errs=%d", len(out), errs)
	}
	for _, r := range out {
		if v, _ := r.Tag("n"); v == 2 {
			t.Fatal("poisoned record survived")
		}
	}
}

func TestPanicInDeterministicNet(t *testing.T) { bothPlans(t, testPanicInDeterministicNet) }

func testPanicInDeterministicNet(t *testing.T, m execMode) {
	// The det merger must not deadlock when a box drops a record: the
	// sort markers still flow, so ordering recovers around the gap.
	var errs int32
	n := SplitDet(poisonBox("p", 5), "k")
	inputs := seqInputs(12, func(i int, r *Record) { r.SetTag("n", i).SetTag("k", i%3) })
	out, _, err := m.RunAll(context.Background(), n, inputs,
		WithErrorHandler(func(error) { atomic.AddInt32(&errs, 1) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 11 || errs != 1 {
		t.Fatalf("out=%d errs=%d", len(out), errs)
	}
	// Remaining records stay in input order.
	prev := -1
	for _, r := range out {
		v, _ := r.Tag("seq")
		if v <= prev {
			t.Fatalf("order broken after drop: %v", out)
		}
		prev = v
	}
}

func TestBoxErrorsDoNotStopStream(t *testing.T) { bothPlans(t, testBoxErrorsDoNotStopStream) }

func testBoxErrorsDoNotStopStream(t *testing.T, m execMode) {
	flaky := NewBox("flaky", MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			if args[0].(int)%2 == 0 {
				return errors.New("even numbers rejected")
			}
			return out.Out(1, args[0].(int))
		})
	var errs int32
	out, _, err := m.RunAll(context.Background(), Serial(flaky, incBox("after", 1)),
		[]*Record{recN(1), recN(2), recN(3), recN(4)},
		WithErrorHandler(func(error) { atomic.AddInt32(&errs, 1) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || errs != 2 {
		t.Fatalf("out=%d errs=%d", len(out), errs)
	}
}

// The classic S-Net idiom: a synchrocell inside a serial replicator joins
// pairs repeatedly — each star stage holds one join.
func TestSyncInsideStarJoinsPairs(t *testing.T) { bothPlans(t, testSyncInsideStarJoinsPairs) }

func testSyncInsideStarJoinsPairs(t *testing.T, m execMode) {
	cell := Sync(MustParsePattern("{a}"), MustParsePattern("{b}"))
	net := NamedStar("joiner", cell, MustParsePattern("{a, b}"))
	inputs := []*Record{
		NewRecord().SetField("a", 1),
		NewRecord().SetField("b", 2),
		NewRecord().SetField("a", 3),
		NewRecord().SetField("b", 4),
	}
	out, _, err := m.RunAll(context.Background(), net, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d joins, want 2", len(out))
	}
	for _, r := range out {
		if !NewVariant(Field("a"), Field("b")).SubsetOf(r.Labels()) {
			t.Fatalf("record %v is not a join", r)
		}
	}
}

// Mixed routing with unroutable records inside a star: the errors surface
// but the network completes.
func TestUnroutableInsideStar(t *testing.T) { bothPlans(t, testUnroutableInsideStar) }

func testUnroutableInsideStar(t *testing.T, m execMode) {
	inner := Parallel(
		NewBox("x", MustParseSignature("(x,<n>) -> (<n>,<done>)"),
			func(args []any, out *Emitter) error { return out.Out(1, args[1].(int), 1) }),
		NewBox("y", MustParseSignature("(y,<n>) -> (<n>,<done>)"),
			func(args []any, out *Emitter) error { return out.Out(1, args[1].(int), 1) }),
	)
	var errs int32
	net := NamedStar("s", inner, MustParsePattern("{<done>}"))
	inputs := []*Record{
		NewRecord().SetField("x", 1).SetTag("n", 0),
		NewRecord().SetField("zzz", 1).SetTag("n", 1), // unroutable
		NewRecord().SetField("y", 1).SetTag("n", 2),
	}
	out, _, err := m.RunAll(context.Background(), net, inputs,
		WithErrorHandler(func(error) { atomic.AddInt32(&errs, 1) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || errs != 1 {
		t.Fatalf("out=%d errs=%d", len(out), errs)
	}
}
