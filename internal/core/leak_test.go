package core

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// goroutineCount samples the goroutine count after a settle period.
func goroutineCount() int {
	for i := 0; i < 10; i++ {
		runtime.Gosched()
	}
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

// waitForGoroutines polls until the count drops to at most want (plus
// slack), failing the test on timeout.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d > %d\n%s", runtime.NumGoroutine(), want, buf[:n])
}

func TestNoLeakAfterNormalDrain(t *testing.T) { eachCell(t, testNoLeakAfterNormalDrain) }

func testNoLeakAfterNormalDrain(t *testing.T, m cell) {
	base := goroutineCount()
	for i := 0; i < 5; i++ {
		n := Serial(
			incBox("l1", 1),
			NamedStar("loop", decBox(), MustParsePattern("{<done>}")),
			MustFilter("{<done>} -> {<done>=<done>}"),
		)
		out, _, err := m.RunAll(context.Background(), n, []*Record{recN(4), recN(2)})
		if err != nil || len(out) != 2 {
			t.Fatalf("run %d: out=%d err=%v", i, len(out), err)
		}
	}
	waitForGoroutines(t, base+3)
}

func TestNoLeakAfterCancel(t *testing.T) { eachCell(t, testNoLeakAfterCancel) }

func testNoLeakAfterCancel(t *testing.T, _ cell) {
	base := goroutineCount()
	for i := 0; i < 5; i++ {
		slow := NewBox("lslow", MustParseSignature("(<n>) -> (<n>)"),
			func(args []any, out *Emitter) error {
				time.Sleep(time.Millisecond)
				return out.Out(1, args[0].(int))
			})
		n := Split(Serial(slow, NamedStar("lloop", decBox(), MustParsePattern("{<done>}"))), "k")
		h := compileNet(n).Start(context.Background())
		for j := 0; j < 20; j++ {
			_ = h.Send(NewRecord().SetTag("n", 10).SetTag("k", j%4))
		}
		h.Cancel()
		h.Wait()
	}
	waitForGoroutines(t, base+3)
}

func TestNoLeakDeterministicNets(t *testing.T) { eachCell(t, testNoLeakDeterministicNets) }

func testNoLeakDeterministicNets(t *testing.T, m cell) {
	base := goroutineCount()
	for i := 0; i < 5; i++ {
		n := SplitDet(StarDet(decBox(), MustParsePattern("{<done>}")), "k")
		inputs := seqInputs(10, func(j int, r *Record) {
			r.SetTag("k", j%3).SetTag("n", j%4)
		})
		out, _, err := m.RunAll(context.Background(), n, inputs)
		if err != nil || len(out) != 10 {
			t.Fatalf("run %d: out=%d err=%v", i, len(out), err)
		}
	}
	waitForGoroutines(t, base+3)
}

// Mid-stream cancellation per node kind: every node's early-exit path must
// go through the shared drainTail discipline, so neither the upstream
// sender nor the node's own machinery (including the box engine's workers
// and releaser) can outlive the run.
func TestNoLeakMidStreamCancel(t *testing.T) {
	slowBody := func(args []any, out *Emitter) error {
		select {
		case <-out.Done():
			return ErrCancelled
		case <-time.After(time.Millisecond):
		}
		return out.Out(1, args[0].(int))
	}
	cases := map[string]func() Node{
		"box": func() Node {
			return NewBox("mc", MustParseSignature("(<n>) -> (<n>)"), slowBody)
		},
		"boxConcurrent": func() Node {
			return NewBoxConcurrent("mcw", MustParseSignature("(<n>) -> (<n>)"), slowBody, 4)
		},
		"filter": func() Node {
			return Serial(NewBox("mf", MustParseSignature("(<n>) -> (<n>)"), slowBody),
				MustFilter("{<n>} -> {<n>=<n>+1}"))
		},
		"split": func() Node {
			return NamedSplit("ms",
				NewBox("msb", MustParseSignature("(<n>) -> (<n>)"), slowBody), "k")
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			eachCell(t, func(t *testing.T, _ cell) {
				base := goroutineCount()
				for i := 0; i < 5; i++ {
					h := compileNet(mk()).Start(context.Background(), WithBuffer(1))
					done := make(chan struct{})
					go func() {
						defer close(done)
						for j := 0; j < 40; j++ {
							if h.Send(NewRecord().SetTag("n", j).SetTag("k", j%4)) != nil {
								return
							}
						}
					}()
					// Consume a couple of results so the stream is genuinely
					// mid-flight, then cancel with records queued everywhere.
					for j := 0; j < 2; j++ {
						select {
						case <-h.Out():
						case <-time.After(time.Second):
						}
					}
					h.Cancel()
					<-done
					h.Wait()
				}
				waitForGoroutines(t, base+3)
			})
		})
	}
}

// TestRunWorkersEndWithTheRun: the workers of a run, parked or busy, end with
// it — a started run's once its output has closed, here by Close with no
// Cancel, a one-shot run's at its end and at the cut stop makes — so the
// goroutines are back at their base after each.
func TestRunWorkersEndWithTheRun(t *testing.T) { eachCell(t, testRunWorkersEndWithTheRun) }

func testRunWorkersEndWithTheRun(t *testing.T, m cell) {
	net := func() Node { return Split(NamedStar("we_loop", decBox(), MustParsePattern("{<done>}")), "k") }
	inputs := func() []*Record {
		return seqInputs(12, func(i int, r *Record) { r.SetTag("n", 2+i%5).SetTag("k", i%4) })
	}
	base := goroutineCount()
	h := compileNet(net()).Start(context.Background())
	h.feed(inputs())
	if out := drainAll(h); len(out) != 12 {
		t.Fatalf("started run: %d records, want 12", len(out))
	}
	waitForGoroutines(t, base)
	if out, _, err := m.RunAll(context.Background(), net(), inputs()); err != nil || len(out) != 12 {
		t.Fatalf("RunAll: %d records, %v", len(out), err)
	}
	waitForGoroutines(t, base)
	if rec, _, err := m.RunUntil(context.Background(), net(), inputs(), func(*Record) bool { return true }); err != nil || rec == nil {
		t.Fatalf("RunUntil: %v, %v", rec, err)
	}
	waitForGoroutines(t, base)
}

// earlyStopNode forwards the first `limit` records, then stops consuming —
// the deterministic early-exit case for the Discard accounting: everything
// the upstream delivers after the limit must be drained and counted.
type earlyStopNode struct{ limit int }

func (n *earlyStopNode) name() string   { return "earlystop" }
func (n *earlyStopNode) String() string { return "earlystop" }
func (n *earlyStopNode) sig() (RecType, RecType) {
	any := RecType{Variant{}}
	return any, any
}

func (n *earlyStopNode) run(env *runEnv, in *streamReader, out *streamWriter) {
	defer out.close()
	in.autoFlush(out)
	seen := 0
	for seen < n.limit {
		it, ok := in.recv()
		if !ok {
			return
		}
		if it.rec != nil {
			seen++
		}
		if !out.send(it) {
			break
		}
	}
	in.Discard()
}

// Tail-draining is accounted: a node that exits early hands its input to
// streamReader.Discard, and the records thrown away show up under
// "stream.discarded" — no anonymous goroutines silently eating streams.
func TestDiscardedRecordsCounted(t *testing.T) { eachCell(t, testDiscardedRecordsCounted) }

func testDiscardedRecordsCounted(t *testing.T, m cell) {
	base := goroutineCount()
	const total, kept = 12, 5
	n := Serial(&earlyStopNode{limit: kept}, incBox("dc", 1))
	inputs := seqInputs(total, func(i int, r *Record) { r.SetTag("n", i) })
	out, stats, err := m.RunAll(context.Background(), n, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != kept {
		t.Fatalf("got %d records, want %d", len(out), kept)
	}
	// The background drainer folds its count when the stream closes; give
	// it a moment.
	deadline := time.Now().Add(2 * time.Second)
	for stats.Counter("stream.discarded") != total-kept {
		if time.Now().After(deadline) {
			t.Fatalf("stream.discarded = %d, want %d",
				stats.Counter("stream.discarded"), total-kept)
		}
		time.Sleep(time.Millisecond)
	}
	if fr := stats.Counter("stream.frames"); fr == 0 {
		t.Fatal("transport counters missing: stream.frames = 0")
	}
	waitForGoroutines(t, base+3)
}

func TestNoLeakUnconsumedOutput(t *testing.T) { eachCell(t, testNoLeakUnconsumedOutput) }

func testNoLeakUnconsumedOutput(t *testing.T, _ cell) {
	// Cancel with Out full, the output adapter blocked on it — its slow
	// path, past the one-channel send — and a sender still blocked on
	// backpressure; h.Out() is never read.
	base, live := goroutineCount(), poolLiveSettled(t)
	for i := 0; i < 5; i++ {
		h := compileNet(incBox("u", 1)).Start(context.Background(), WithBuffer(2))
		sendDone := make(chan struct{})
		go func() {
			defer close(sendDone)
			for j := 0; j < 10; j++ {
				if h.Send(recN(j)) != nil {
					return
				}
			}
		}()
		for deadline := time.Now().Add(5 * time.Second); len(h.Out()) < cap(h.Out()); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("Out holds %d of %d records after 5s", len(h.Out()), cap(h.Out()))
			}
		}
		h.Cancel()
		<-sendDone
		h.Wait()
	}
	waitForGoroutines(t, base+3)
	waitPoolLive(t, live)
}
