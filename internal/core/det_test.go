package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// Deterministic combinators (|, *, !) must preserve the causal order of
// inputs in the merged output even when branches run at wildly different
// speeds; the nondeterministic variants must deliver the same multiset.

// jitterBox sleeps a pseudo-random time derived from <seq> before
// forwarding, so branch speeds interleave unpredictably.
func jitterBox(name string, salt int64) Node {
	return NewBox(name, MustParseSignature("(<seq>) -> (<seq>,<via_"+name+">)"),
		func(args []any, out *Emitter) error {
			seq := args[0].(int)
			r := rand.New(rand.NewSource(salt + int64(seq)))
			time.Sleep(time.Duration(r.Intn(3)) * time.Millisecond)
			return out.Out(1, seq, 1)
		})
}

func seqInputs(n int, extra func(i int, r *Record)) []*Record {
	out := make([]*Record, n)
	for i := 0; i < n; i++ {
		out[i] = NewRecord().SetTag("seq", i)
		if extra != nil {
			extra(i, out[i])
		}
	}
	return out
}

func collectSeqs(t *testing.T, recs []*Record) []int {
	t.Helper()
	seqs := make([]int, len(recs))
	for i, r := range recs {
		seqs[i] = tagOf(t, r, "seq")
	}
	return seqs
}

func assertOrdered(t *testing.T, seqs []int, n int) {
	t.Helper()
	if len(seqs) != n {
		t.Fatalf("got %d records, want %d", len(seqs), n)
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("order broken at %d: %v", i, seqs)
		}
	}
}

func assertMultiset(t *testing.T, seqs []int, n int) {
	t.Helper()
	if len(seqs) != n {
		t.Fatalf("got %d records, want %d", len(seqs), n)
	}
	seen := map[int]bool{}
	for _, s := range seqs {
		if seen[s] {
			t.Fatalf("duplicate seq %d", s)
		}
		seen[s] = true
	}
}

const detN = 40

// Records alternate between a slow and a fast branch, selected by field.
func detParallelNet(det bool) (Node, []*Record) {
	slow := NewBox("slow", MustParseSignature("(s,<seq>) -> (<seq>)"),
		func(args []any, out *Emitter) error {
			time.Sleep(2 * time.Millisecond)
			return out.Out(1, args[1].(int))
		})
	fast := NewBox("fast", MustParseSignature("(f,<seq>) -> (<seq>)"),
		func(args []any, out *Emitter) error {
			return out.Out(1, args[1].(int))
		})
	var n Node
	if det {
		n = ParallelDet(slow, fast)
	} else {
		n = Parallel(slow, fast)
	}
	inputs := seqInputs(detN, func(i int, r *Record) {
		if i%2 == 0 {
			r.SetField("s", 1)
		} else {
			r.SetField("f", 1)
		}
	})
	return n, inputs
}

func TestDetParallelPreservesInputOrder(t *testing.T) {
	eachCell(t, testDetParallelPreservesInputOrder)
}

func testDetParallelPreservesInputOrder(t *testing.T, m cell) {
	n, inputs := detParallelNet(true)
	out, _ := m.runNet(t, n, inputs)
	assertOrdered(t, collectSeqs(t, out), detN)
}

func TestNondetParallelDeliversAll(t *testing.T) { eachCell(t, testNondetParallelDeliversAll) }

func testNondetParallelDeliversAll(t *testing.T, m cell) {
	n, inputs := detParallelNet(false)
	out, _ := m.runNet(t, n, inputs)
	assertMultiset(t, collectSeqs(t, out), detN)
}

func TestNondetParallelCanReorder(t *testing.T) { eachCell(t, testNondetParallelCanReorder) }

func testNondetParallelCanReorder(t *testing.T, m cell) {
	// Not a strict guarantee, but with a 2ms slow branch and an eager
	// fast branch reordering should occur essentially always; retry a
	// few times to keep flake probability negligible.
	for attempt := 0; attempt < 5; attempt++ {
		n, inputs := detParallelNet(false)
		out, _ := m.runNet(t, n, inputs)
		seqs := collectSeqs(t, out)
		for i, s := range seqs {
			if s != i {
				return // observed reordering: nondeterministic merge works
			}
		}
	}
	t.Log("warning: nondeterministic merge never reordered; timing-dependent")
}

func TestDetSplitPreservesInputOrder(t *testing.T) { eachCell(t, testDetSplitPreservesInputOrder) }

func testDetSplitPreservesInputOrder(t *testing.T, m cell) {
	n := SplitDet(jitterBox("j", 17), "k")
	inputs := seqInputs(detN, func(i int, r *Record) { r.SetTag("k", i%4) })
	out, _ := m.runNet(t, n, inputs)
	assertOrdered(t, collectSeqs(t, out), detN)
}

func TestNondetSplitDeliversAll(t *testing.T) { eachCell(t, testNondetSplitDeliversAll) }

func testNondetSplitDeliversAll(t *testing.T, m cell) {
	n := Split(jitterBox("j", 23), "k")
	inputs := seqInputs(detN, func(i int, r *Record) { r.SetTag("k", i%4) })
	out, _ := m.runNet(t, n, inputs)
	assertMultiset(t, collectSeqs(t, out), detN)
}

// varDecBox decrements <n> with jitter and signals <done> at zero; different
// records exit a star chain at different depths.
func varDecBox(salt int64) Node {
	return NewBox("vdec", MustParseSignature("(<n>,<seq>) -> (<n>,<seq>) | (<seq>,<done>)"),
		func(args []any, out *Emitter) error {
			n, seq := args[0].(int), args[1].(int)
			r := rand.New(rand.NewSource(salt + int64(n*100+seq)))
			time.Sleep(time.Duration(r.Intn(2)) * time.Millisecond)
			if n <= 0 {
				return out.Out(2, seq, 1)
			}
			return out.Out(1, n-1, seq)
		})
}

func TestDetStarPreservesInputOrder(t *testing.T) { eachCell(t, testDetStarPreservesInputOrder) }

func testDetStarPreservesInputOrder(t *testing.T, m cell) {
	n := StarDet(varDecBox(5), MustParsePattern("{<done>}"))
	inputs := seqInputs(detN, func(i int, r *Record) { r.SetTag("n", (detN-i)%7) })
	out, _ := m.runNet(t, n, inputs)
	assertOrdered(t, collectSeqs(t, out), detN)
}

func TestNondetStarDeliversAll(t *testing.T) { eachCell(t, testNondetStarDeliversAll) }

func testNondetStarDeliversAll(t *testing.T, m cell) {
	n := Star(varDecBox(7), MustParsePattern("{<done>}"))
	inputs := seqInputs(detN, func(i int, r *Record) { r.SetTag("n", i%7) })
	out, _ := m.runNet(t, n, inputs)
	assertMultiset(t, collectSeqs(t, out), detN)
}

// Nesting: a nondeterministic split inside a deterministic parallel — the
// outer determinism must survive inner nondeterminism (sort-record barriers
// pass through the inner merger).
func TestDetOuterNondetInner(t *testing.T) { eachCell(t, testDetOuterNondetInner) }

func testDetOuterNondetInner(t *testing.T, m cell) {
	inner := Split(jitterBox("inner", 31), "k")
	other := NewBox("noval", MustParseSignature("(none,<seq>) -> (<seq>)"),
		func(args []any, out *Emitter) error { return out.Out(1, args[1].(int)) })
	n := ParallelDet(inner, other)
	inputs := seqInputs(detN, func(i int, r *Record) {
		if i%3 == 0 {
			r.SetField("none", 1)
		} else {
			r.SetTag("k", i%4)
		}
	})
	out, _ := m.runNet(t, n, inputs)
	assertOrdered(t, collectSeqs(t, out), detN)
}

// Nesting: a nondeterministic star or split whose output is a branch of
// another site, with a deterministic site around it — its input carries that
// site's sort markers, so it merges them as every site does.  Every net's
// output order is the input order: seq 0, 1, …, detN-1.
func TestNondetInsideDet(t *testing.T) { eachCell(t, testNondetInsideDet) }

func testNondetInsideDet(t *testing.T, m cell) {
	done := MustParsePattern("{<done>}")
	fast := func() Node {
		return NewBox("nid_fast", MustParseSignature("(f,<seq>) -> (<seq>,<done>)"),
			func(args []any, out *Emitter) error { return out.Out(1, args[1].(int), 1) })
	}
	// Every third record takes the fast branch; the rest count <n> down.
	mark := func(i int, r *Record) {
		if i%3 == 0 {
			r.SetField("f", 1)
		} else {
			r.SetTag("n", i%5).SetTag("k", i%4)
		}
	}
	nets := []struct {
		name string
		net  Node
	}{
		{"star in ParallelDet", ParallelDet(Star(varDecBox(13), done), fast())},
		{"split in ParallelDet", ParallelDet(Serial(Observe("nid_tap", nil), Split(varDecBox(43), "k")), fast())},
		{"split in StarDet", StarDet(Parallel(Split(varDecBox(17), "k"), fast()), done)},
		{"star in StarDet", StarDet(Parallel(Star(varDecBox(19), done), fast()), done)},
	}
	want := make([]int, detN)
	for i := range want {
		want[i] = i
	}
	for _, n := range nets {
		t.Run(n.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			out, _, err := m.RunAll(ctx, n.net, seqInputs(detN, mark))
			if err != nil {
				t.Fatalf("RunAll: %v", err)
			}
			if got := collectSeqs(t, out); !slices.Equal(got, want) {
				t.Fatalf("output order %v, want %v", got, want)
			}
		})
	}
}

// Nesting: deterministic star inside deterministic split.
func TestDetStarInsideDetSplit(t *testing.T) { eachCell(t, testDetStarInsideDetSplit) }

func testDetStarInsideDetSplit(t *testing.T, m cell) {
	inner := StarDet(varDecBox(11), MustParsePattern("{<done>}"))
	n := SplitDet(inner, "k")
	inputs := seqInputs(detN, func(i int, r *Record) {
		r.SetTag("k", i%3).SetTag("n", i%5)
	})
	out, _ := m.runNet(t, n, inputs)
	assertOrdered(t, collectSeqs(t, out), detN)
}

// A deterministic combinator fed from another deterministic combinator in
// series: markers of the first must not confuse the second.
func TestDetSeriesOfDetCombinators(t *testing.T) { eachCell(t, testDetSeriesOfDetCombinators) }

func testDetSeriesOfDetCombinators(t *testing.T, m cell) {
	first := ParallelDet(
		NewBox("pa", MustParseSignature("(s,<seq>) -> (<seq>)"),
			func(args []any, out *Emitter) error {
				time.Sleep(time.Millisecond)
				return out.Out(1, args[1].(int))
			}),
		NewBox("pb", MustParseSignature("(f,<seq>) -> (<seq>)"),
			func(args []any, out *Emitter) error { return out.Out(1, args[1].(int)) }),
	)
	second := SplitDet(jitterBox("j2", 41), "k")
	// first consumes s/f and emits {<seq>}; add <k> downstream for split.
	addK := MustFilter("{<seq>} -> {<seq>, <k>=<seq>%3}")
	n := Serial(first, addK, second)
	inputs := seqInputs(detN, func(i int, r *Record) {
		if i%2 == 0 {
			r.SetField("s", 1)
		} else {
			r.SetField("f", 1)
		}
	})
	out, _ := m.runNet(t, n, inputs)
	assertOrdered(t, collectSeqs(t, out), detN)
}

// A box that multiplies records: det combinators must keep each input's
// outputs grouped and in generation order.
func TestDetSplitWithMultiOutputBox(t *testing.T) { eachCell(t, testDetSplitWithMultiOutputBox) }

func testDetSplitWithMultiOutputBox(t *testing.T, m cell) {
	multi := NewBox("multi", MustParseSignature("(<seq>) -> (<seq>,<part>)"),
		func(args []any, out *Emitter) error {
			seq := args[0].(int)
			time.Sleep(time.Duration(seq%2) * time.Millisecond)
			for part := 0; part < 3; part++ {
				if err := out.Out(1, seq, part); err != nil {
					return err
				}
			}
			return nil
		})
	n := SplitDet(multi, "k")
	inputs := seqInputs(20, func(i int, r *Record) { r.SetTag("k", i%4) })
	out, _ := m.runNet(t, n, inputs)
	if len(out) != 60 {
		t.Fatalf("got %d records", len(out))
	}
	for i, r := range out {
		wantSeq, wantPart := i/3, i%3
		if tagOf(t, r, "seq") != wantSeq || tagOf(t, r, "part") != wantPart {
			t.Fatalf("position %d: got seq=%d part=%d, want %d/%d",
				i, tagOf(t, r, "seq"), tagOf(t, r, "part"), wantSeq, wantPart)
		}
	}
}

func TestDetRunsAreRepeatable(t *testing.T) { eachCell(t, testDetRunsAreRepeatable) }

func testDetRunsAreRepeatable(t *testing.T, m cell) {
	// Two runs of a deterministic network produce identical sequences.
	run := func() []int {
		n := SplitDet(jitterBox("rep", time.Now().UnixNano()%1000), "k")
		inputs := seqInputs(25, func(i int, r *Record) { r.SetTag("k", i%5) })
		out, _, err := m.RunAll(context.Background(), n, inputs)
		if err != nil {
			t.Fatal(err)
		}
		return collectSeqs(t, out)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a, b)
		}
	}
}

// BenchmarkDetVsNondet prices the sort-record protocol (§4): the same record
// flood through a nondeterministic and a deterministic split.
func BenchmarkDetVsNondet(b *testing.B) {
	const n = 500
	inputs := make([]*Record, n)
	for i := range inputs {
		inputs[i] = NewRecord().SetTag("n", i).SetTag("k", i%4)
	}
	idFn := func(args []any, out *Emitter) error { return out.Out(1, args[0].(int)) }
	for _, det := range []bool{false, true} {
		name, split := "nondet", Split
		if det {
			name, split = "det", SplitDet
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				box := NewBox("w", MustParseSignature("(<n>) -> (<n>)"), idFn)
				out, _, err := MustCompile(split(box, "k")).RunAll(context.Background(), inputs)
				if err != nil || len(out) != n {
					b.Fatalf("out=%d err=%v", len(out), err)
				}
			}
		})
	}
}
