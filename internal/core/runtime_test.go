package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"
)

// incBox returns a box (<n>) -> (<n>) emitting n+delta.
func incBox(name string, delta int) Node {
	return NewBox(name, MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			return out.Out(1, args[0].(int)+delta)
		})
}

func tagOf(t *testing.T, r *Record, name string) int {
	t.Helper()
	v, ok := r.Tag(name)
	if !ok {
		t.Fatalf("record %s lacks tag <%s>", r, name)
	}
	return v
}

func recN(n int) *Record { return NewRecord().SetTag("n", n) }

func TestBoxBasic(t *testing.T) { eachCell(t, testBoxBasic) }

func testBoxBasic(t *testing.T, m cell) {
	out, stats := m.runNet(t, incBox("inc", 1), []*Record{recN(1), recN(2), recN(3)})
	if len(out) != 3 {
		t.Fatalf("got %d records", len(out))
	}
	got := []int{}
	for _, r := range out {
		got = append(got, tagOf(t, r, "n"))
	}
	sort.Ints(got)
	if got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("outputs = %v", got)
	}
	if stats.Counter("box.inc.calls") != 3 {
		t.Fatalf("calls = %d", stats.Counter("box.inc.calls"))
	}
}

func TestBoxMultipleOutputsPerInput(t *testing.T) { eachCell(t, testBoxMultipleOutputsPerInput) }

func testBoxMultipleOutputsPerInput(t *testing.T, m cell) {
	fan := NewBox("fan", MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			n := args[0].(int)
			for i := 0; i < n; i++ {
				if err := out.Out(1, i); err != nil {
					return err
				}
			}
			if out.Emitted() != n {
				return fmt.Errorf("emitted %d, want %d", out.Emitted(), n)
			}
			return nil
		})
	out, _ := m.runNet(t, fan, []*Record{recN(4)})
	if len(out) != 4 {
		t.Fatalf("got %d records", len(out))
	}
}

// Flow inheritance (§4): excess labels of the input are attached to outputs
// unless already present.
func TestBoxFlowInheritance(t *testing.T) { eachCell(t, testBoxFlowInheritance) }

func testBoxFlowInheritance(t *testing.T, m cell) {
	// box foo (a,<b>) -> (c) | (c,d,<e>), fed {a,<b>,d}: first variant
	// gains d by inheritance, second variant keeps its own d.
	foo := NewBox("foo", MustParseSignature("(a,<b>) -> (c) | (c,d,<e>)"),
		func(args []any, out *Emitter) error {
			if err := out.Out(1, "c1"); err != nil {
				return err
			}
			return out.Out(2, "c2", "ownD", 42)
		})
	in := NewRecord().SetField("a", "A").SetTag("b", 7).SetField("d", "inheritedD")
	out, _ := m.runNet(t, foo, []*Record{in})
	if len(out) != 2 {
		t.Fatalf("got %d records", len(out))
	}
	// Identify the two variants by <e>.
	var v1, v2 *Record
	for _, r := range out {
		if _, ok := r.Tag("e"); ok {
			v2 = r
		} else {
			v1 = r
		}
	}
	if v1 == nil || v2 == nil {
		t.Fatalf("missing variants: %v", out)
	}
	if d, ok := v1.Field("d"); !ok || d != "inheritedD" {
		t.Fatalf("variant 1 must inherit d, got %v", v1)
	}
	if d, _ := v2.Field("d"); d != "ownD" {
		t.Fatalf("variant 2 must keep its own d, got %v", v2)
	}
	// Consumed labels a and <b> do not inherit.
	if _, ok := v1.Field("a"); ok {
		t.Fatal("consumed field a must not inherit")
	}
	if _, ok := v1.Tag("b"); ok {
		t.Fatal("consumed tag <b> must not inherit")
	}
}

func TestBoxRejectsNonMatchingRecord(t *testing.T) { eachCell(t, testBoxRejectsNonMatchingRecord) }

func testBoxRejectsNonMatchingRecord(t *testing.T, m cell) {
	var errs []error
	out, stats := m.runNet(t, incBox("inc", 1),
		[]*Record{NewRecord().SetField("other", 1)},
		WithErrorHandler(func(e error) { errs = append(errs, e) }))
	if len(out) != 0 {
		t.Fatalf("got %d records", len(out))
	}
	if stats.Counter("box.inc.rejected") != 1 || len(errs) != 1 {
		t.Fatal("rejection not reported")
	}
}

func TestBoxPanicIsolation(t *testing.T) { eachCell(t, testBoxPanicIsolation) }

func testBoxPanicIsolation(t *testing.T, m cell) {
	bomb := NewBox("bomb", MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			if args[0].(int) == 2 {
				panic("kaboom")
			}
			return out.Out(1, args[0].(int))
		})
	var errs []error
	out, stats := m.runNet(t, bomb, []*Record{recN(1), recN(2), recN(3)},
		WithErrorHandler(func(e error) { errs = append(errs, e) }))
	if len(out) != 2 {
		t.Fatalf("got %d records, want the two survivors", len(out))
	}
	if stats.Counter("box.bomb.panics") != 1 || len(errs) != 1 {
		t.Fatal("panic not reported")
	}
}

func TestBoxErrorReturnReported(t *testing.T) { eachCell(t, testBoxErrorReturnReported) }

func testBoxErrorReturnReported(t *testing.T, m cell) {
	bad := NewBox("bad", MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error { return errors.New("nope") })
	var errs []error
	_, _ = m.runNet(t, bad, []*Record{recN(1)},
		WithErrorHandler(func(e error) { errs = append(errs, e) }))
	if len(errs) != 1 {
		t.Fatal("box error not reported")
	}
}

func TestEmitterValidation(t *testing.T) { eachCell(t, testEmitterValidation) }

func testEmitterValidation(t *testing.T, m cell) {
	var gotErrs []error
	box := NewBox("val", MustParseSignature("(<n>) -> (a,<t>)"),
		func(args []any, out *Emitter) error {
			if err := out.Out(3, "x", 1); err == nil {
				return errors.New("variant 3 should fail")
			}
			if err := out.Out(1, "x"); err == nil {
				return errors.New("arity should fail")
			}
			if err := out.Out(1, "x", "notint"); err == nil {
				return errors.New("tag type should fail")
			}
			return out.Out(1, "x", 5)
		})
	out, _ := m.runNet(t, box, []*Record{recN(0)},
		WithErrorHandler(func(e error) { gotErrs = append(gotErrs, e) }))
	if len(out) != 1 {
		t.Fatalf("got %d records", len(out))
	}
	if tv, _ := out[0].Tag("t"); tv != 5 {
		t.Fatal("valid emit lost")
	}
}

func TestSerialPipeline(t *testing.T) { eachCell(t, testSerialPipeline) }

func testSerialPipeline(t *testing.T, m cell) {
	n := Serial(incBox("a", 1), incBox("b", 10), incBox("c", 100))
	out, _ := m.runNet(t, n, []*Record{recN(0)})
	if len(out) != 1 || tagOf(t, out[0], "n") != 111 {
		t.Fatalf("pipeline result = %v", out)
	}
}

func TestSerialNeedsOneNode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Serial() must panic")
		}
	}()
	Serial()
}

func TestFilterNode(t *testing.T) { eachCell(t, testFilterNode) }

func testFilterNode(t *testing.T, m cell) {
	n := MustFilter("{<n>} -> {<n>=<n>*2}")
	out, stats := m.runNet(t, n, []*Record{recN(3)})
	if len(out) != 1 || tagOf(t, out[0], "n") != 6 {
		t.Fatalf("filter result = %v", out)
	}
	if stats.SumPrefix("filter.") != 1 {
		t.Fatal("filter stats missing")
	}
}

func TestFilterNoMatchForwards(t *testing.T) { eachCell(t, testFilterNoMatchForwards) }

func testFilterNoMatchForwards(t *testing.T, m cell) {
	// A record without the pattern's labels, and one its guard refuses.
	for _, n := range []Node{MustFilter("{<missing>} -> {<missing>}"), MustFilter("{<n>} | <n> > 1 -> {<n>=<n>*2}")} {
		out, stats := m.runNet(t, n, []*Record{recN(1)})
		if len(out) != 1 || tagOf(t, out[0], "n") != 1 {
			t.Fatalf("%v: a non-matching record must pass through unchanged", n)
		}
		found := false
		for k := range stats.Snapshot() {
			if len(k) > 7 && k[:7] == "filter." && k[len(k)-8:] == ".nomatch" {
				found = true
			}
		}
		if !found {
			t.Fatal("nomatch not counted")
		}
	}
}

func TestObserveTap(t *testing.T) { eachCell(t, testObserveTap) }

func testObserveTap(t *testing.T, m cell) {
	var seen []int
	n := Serial(incBox("a", 1), Observe("tap", func(r *Record) {
		if v, ok := r.Tag("n"); ok {
			seen = append(seen, v)
		}
	}), incBox("b", 1))
	out, _ := m.runNet(t, n, []*Record{recN(0)})
	if len(out) != 1 || tagOf(t, out[0], "n") != 2 {
		t.Fatal("observe must be transparent")
	}
	if len(seen) != 1 || seen[0] != 1 {
		t.Fatalf("tap saw %v", seen)
	}
}

func TestTracerSeesBoxEvents(t *testing.T) { eachCell(t, testTracerSeesBoxEvents) }

func testTracerSeesBoxEvents(t *testing.T, m cell) {
	var events []string
	tr := TracerFunc(func(node, dir string, rec *Record) {
		events = append(events, node+":"+dir)
	})
	// Single box, single record: trace callbacks happen on the box
	// goroutine; no extra synchronisation needed after Wait.
	_, _ = m.runNet(t, incBox("tb", 1), []*Record{recN(1)}, WithTracer(tr))
	if len(events) != 2 || events[0] != "tb:in" || events[1] != "tb:out" {
		t.Fatalf("events = %v", events)
	}
}

func TestHandleSendAfterClose(t *testing.T) { eachCell(t, testHandleSendAfterClose) }

func testHandleSendAfterClose(t *testing.T, _ cell) {
	h := compileNet(incBox("x", 1)).Start(context.Background())
	h.Close()
	if err := h.Send(recN(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	h.Wait()
}

func TestHandleCancelDrains(t *testing.T) { eachCell(t, testHandleCancelDrains) }

func testHandleCancelDrains(t *testing.T, _ cell) {
	slow := NewBox("slow", MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			time.Sleep(5 * time.Millisecond)
			return out.Out(1, args[0].(int))
		})
	h := compileNet(Serial(slow, slow)).Start(context.Background())
	for i := 0; i < 50; i++ {
		if err := h.Send(recN(i)); err != nil {
			break
		}
	}
	h.Cancel()
	// Out must close promptly even with records in flight.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-h.Out():
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("output did not close after cancel")
		}
	}
}

func TestRunUntilFirstResultWins(t *testing.T) { eachCell(t, testRunUntilFirstResultWins) }

func testRunUntilFirstResultWins(t *testing.T, m cell) {
	n := incBox("inc", 1)
	inputs := []*Record{recN(10), recN(20), recN(30)}
	rec, _, err := m.RunUntil(context.Background(), n, inputs, func(r *Record) bool {
		v, _ := r.Tag("n")
		return v > 15
	})
	if err != nil || rec == nil {
		t.Fatalf("rec=%v err=%v", rec, err)
	}
	if v := tagOf(t, rec, "n"); v <= 15 {
		t.Fatalf("stop record = %d", v)
	}
}

func TestRunUntilNoMatchReturnsNil(t *testing.T) { eachCell(t, testRunUntilNoMatchReturnsNil) }

func testRunUntilNoMatchReturnsNil(t *testing.T, m cell) {
	rec, _, err := m.RunUntil(context.Background(), incBox("inc", 1),
		[]*Record{recN(1)}, func(r *Record) bool { return false })
	if rec != nil || err != nil {
		t.Fatalf("rec=%v err=%v", rec, err)
	}
}
