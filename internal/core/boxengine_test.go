package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The concurrent box engine (boxengine.go) must overlap invocations while
// keeping the output stream byte-identical to sequential execution.

// gateBox blocks every invocation until `need` of them are in flight at
// once, proving genuine overlap without depending on timing.
func gateBox(name string, need int) (Node, *atomic.Int32) {
	var inflight atomic.Int32
	n := NewBox(name, MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			inflight.Add(1)
			deadline := time.Now().Add(5 * time.Second)
			for inflight.Load() < int32(need) {
				if time.Now().After(deadline) {
					return errors.New("gate never filled: no overlap")
				}
				select {
				case <-out.Done():
					return ErrCancelled
				case <-time.After(100 * time.Microsecond):
				}
			}
			return out.Out(1, args[0].(int))
		})
	return n, &inflight
}

func TestBoxEngineOverlapsInvocations(t *testing.T) { bothPlans(t, testBoxEngineOverlapsInvocations) }

func testBoxEngineOverlapsInvocations(t *testing.T, m execMode) {
	box, _ := gateBox("olap", 3)
	out, stats := m.runNet(t, box, seqInputs(6, func(i int, r *Record) { r.SetTag("n", i) }),
		WithBoxWorkers(4))
	if len(out) != 6 {
		t.Fatalf("got %d records", len(out))
	}
	if hw := stats.Max("box.olap.inflight"); hw < 3 {
		t.Fatalf("inflight high-water = %d, want >= 3", hw)
	}
	if stats.Max("box.olap.concurrency") != 4 {
		t.Fatalf("concurrency = %d, want 4", stats.Max("box.olap.concurrency"))
	}
	if stats.Counter("box.olap.calls") != 6 {
		t.Fatalf("calls = %d", stats.Counter("box.olap.calls"))
	}
}

func TestBoxEnginePreservesOrder(t *testing.T) { bothPlans(t, testBoxEnginePreservesOrder) }

func testBoxEnginePreservesOrder(t *testing.T, m execMode) {
	// Each input <seq> emits (seq,0)..(seq,2) after a seq-dependent delay;
	// a concurrent engine that released invocations as they finish would
	// interleave them.  The reorder stage must restore input order exactly.
	multi := NewBox("ord", MustParseSignature("(<seq>) -> (<seq>,<part>)"),
		func(args []any, out *Emitter) error {
			seq := args[0].(int)
			time.Sleep(time.Duration((seq%5)*300) * time.Microsecond)
			for part := 0; part < 3; part++ {
				if err := out.Out(1, seq, part); err != nil {
					return err
				}
			}
			return nil
		})
	const n = 30
	out, _ := m.runNet(t, multi, seqInputs(n, nil), WithBoxWorkers(8))
	if len(out) != 3*n {
		t.Fatalf("got %d records", len(out))
	}
	for i, r := range out {
		if tagOf(t, r, "seq") != i/3 || tagOf(t, r, "part") != i%3 {
			t.Fatalf("position %d: got seq=%d part=%d", i,
				tagOf(t, r, "seq"), tagOf(t, r, "part"))
		}
	}
}

func TestBoxEngineMarkerBarrier(t *testing.T) { bothPlans(t, testBoxEngineMarkerBarrier) }

func testBoxEngineMarkerBarrier(t *testing.T, m execMode) {
	// A concurrent jittery box inside deterministic combinators: the sort
	// markers crossing the box must still delimit exactly the records routed
	// before them, or the det merge falls apart.
	n := SplitDet(jitterBox("mb", 91), "k")
	inputs := seqInputs(detN, func(i int, r *Record) { r.SetTag("k", i%4) })
	out, _ := m.runNet(t, n, inputs, WithBoxWorkers(8))
	assertOrdered(t, collectSeqs(t, out), detN)
}

func TestBoxEnginePanicIsolation(t *testing.T) { bothPlans(t, testBoxEnginePanicIsolation) }

func testBoxEnginePanicIsolation(t *testing.T, m execMode) {
	var errs int32
	out, stats := func() ([]*Record, *Stats) {
		out, stats, err := m.RunAll(context.Background(), poisonBox("pc", 7),
			seqInputs(20, func(i int, r *Record) { r.SetTag("n", i) }),
			WithBoxWorkers(4),
			WithErrorHandler(func(error) { atomic.AddInt32(&errs, 1) }))
		if err != nil {
			t.Fatal(err)
		}
		return out, stats
	}()
	if len(out) != 19 {
		t.Fatalf("got %d records, want 19 survivors", len(out))
	}
	if errs != 1 || stats.Counter("box.pc.panics") != 1 {
		t.Fatalf("errs=%d panics=%d", errs, stats.Counter("box.pc.panics"))
	}
}

func TestBoxEngineRejectsUnbindable(t *testing.T) { bothPlans(t, testBoxEngineRejectsUnbindable) }

func testBoxEngineRejectsUnbindable(t *testing.T, m execMode) {
	var errs int32
	out, stats, err := m.RunAll(context.Background(), incBox("rj", 1),
		[]*Record{recN(1), NewRecord().SetField("other", 1), recN(2)},
		WithBoxWorkers(4),
		WithErrorHandler(func(error) { atomic.AddInt32(&errs, 1) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || errs != 1 || stats.Counter("box.rj.rejected") != 1 {
		t.Fatalf("out=%d errs=%d rejected=%d", len(out), errs,
			stats.Counter("box.rj.rejected"))
	}
}

func TestNewBoxConcurrentOverridesRunDefault(t *testing.T) {
	bothPlans(t, testNewBoxConcurrentOverridesRunDefault)
}

func testNewBoxConcurrentOverridesRunDefault(t *testing.T, m execMode) {
	// The run default is sequential, but the box pins its own width.
	var inflight atomic.Int32
	box := NewBoxConcurrent("own", MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			inflight.Add(1)
			deadline := time.Now().Add(5 * time.Second)
			for inflight.Load() < 2 {
				if time.Now().After(deadline) {
					return errors.New("no overlap despite NewBoxConcurrent")
				}
				time.Sleep(100 * time.Microsecond)
			}
			return out.Out(1, args[0].(int))
		}, 4)
	out, stats := m.runNet(t, box, seqInputs(4, func(i int, r *Record) { r.SetTag("n", i) }),
		WithBoxWorkers(1))
	if len(out) != 4 {
		t.Fatalf("got %d records", len(out))
	}
	if stats.Max("box.own.concurrency") != 4 {
		t.Fatalf("concurrency = %d, want 4", stats.Max("box.own.concurrency"))
	}
}

func TestNewBoxConcurrentPinsSequential(t *testing.T) {
	bothPlans(t, testNewBoxConcurrentPinsSequential)
}

func testNewBoxConcurrentPinsSequential(t *testing.T, m execMode) {
	// Width 1 pins the box to the sequential path even when the run default
	// is wide: at no point may two invocations overlap.
	var inflight, overlapped atomic.Int32
	box := NewBoxConcurrent("pin", MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			if inflight.Add(1) > 1 {
				overlapped.Store(1)
			}
			time.Sleep(200 * time.Microsecond)
			inflight.Add(-1)
			return out.Out(1, args[0].(int))
		}, 1)
	out, stats := m.runNet(t, box, seqInputs(10, func(i int, r *Record) { r.SetTag("n", i) }),
		WithBoxWorkers(16))
	if len(out) != 10 {
		t.Fatalf("got %d records", len(out))
	}
	if overlapped.Load() != 0 {
		t.Fatal("pinned-sequential box overlapped invocations")
	}
	if stats.Max("box.pin.concurrency") != 1 {
		t.Fatalf("concurrency = %d, want 1", stats.Max("box.pin.concurrency"))
	}
}

// Satellite audit: a stopped emitter must refuse further emissions without
// counting them, and cancelled invocations must not count as completed
// calls — "box.<name>.calls" and "box.<name>.emitted" describe what
// actually reached the box's output stream.
func TestEmitterStoppedStopsCounting(t *testing.T) { bothPlans(t, testEmitterStoppedStopsCounting) }

func testEmitterStoppedStopsCounting(t *testing.T, m execMode) {
	var sawStopped, emittedAfterStop, calls int32
	blocker := NewBox("stop", MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			atomic.AddInt32(&calls, 1)
			for i := 0; ; i++ {
				before := out.Emitted()
				if err := out.Out(1, i); err != nil {
					if !errors.Is(err, ErrCancelled) {
						return err
					}
					atomic.StoreInt32(&sawStopped, 1)
					// Emitter is stopped: another Out must fail fast
					// and not advance the emission count.
					if err2 := out.Out(1, i); !errors.Is(err2, ErrCancelled) {
						return errors.New("second Out after stop did not fail")
					}
					if out.Emitted() != before {
						atomic.StoreInt32(&emittedAfterStop, 1)
					}
					return ErrCancelled
				}
			}
		})
	h := m.Start(context.Background(), blocker, WithBuffer(0))
	if err := h.Send(recN(1)); err != nil {
		t.Fatal(err)
	}
	// The box is now looping emissions nobody consumes; cancel mid-stream.
	time.Sleep(2 * time.Millisecond)
	h.Cancel()
	h.Wait()
	// Wait waits for the output adapter, not the node goroutine; the box
	// settles its accounting just before exiting — and a concurrent engine
	// counts the overtaken slot without waiting for the box function to
	// notice — so poll until the invocation has both been counted and seen
	// its emitter stop.
	stats := h.Stats()
	deadline := time.Now().Add(5 * time.Second)
	for (stats.Counter("box.stop.cancelled") == 0 || atomic.LoadInt32(&sawStopped) == 0) &&
		time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c, s := atomic.LoadInt32(&calls), atomic.LoadInt32(&sawStopped); c != 1 || s != 1 {
		t.Fatalf("calls=%d sawStopped=%d", c, s)
	}
	if atomic.LoadInt32(&emittedAfterStop) != 0 {
		t.Fatal("Emitted() advanced after the emitter was stopped")
	}
	if stats.Counter("box.stop.calls") != 0 {
		t.Fatalf("cancelled invocation counted as completed call: %d",
			stats.Counter("box.stop.calls"))
	}
	if stats.Counter("box.stop.cancelled") != 1 {
		t.Fatalf("cancelled = %d, want 1", stats.Counter("box.stop.cancelled"))
	}
}

func TestBoxEmittedCounterMatchesOutput(t *testing.T) {
	bothPlans(t, testBoxEmittedCounterMatchesOutput)
}

func testBoxEmittedCounterMatchesOutput(t *testing.T, m execMode) {
	fan := NewBox("cnt", MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			for i := 0; i < args[0].(int); i++ {
				if err := out.Out(1, i); err != nil {
					return err
				}
			}
			return nil
		})
	for _, w := range []int{1, 4} {
		out, stats := m.runNet(t, fan, []*Record{recN(2), recN(3), recN(4)}, WithBoxWorkers(w))
		if len(out) != 9 {
			t.Fatalf("W=%d: got %d records", w, len(out))
		}
		if got := stats.Counter("box.cnt.emitted"); got != 9 {
			t.Fatalf("W=%d: emitted = %d, want 9", w, got)
		}
		if got := stats.Counter("box.cnt.calls"); got != 3 {
			t.Fatalf("W=%d: calls = %d, want 3", w, got)
		}
	}
}

// A box nobody gave a width starts inline and hands over to concurrent mode
// only once its own service time has repaid the hand-off boxEscalateRun
// times in a row (boxengine.go).  The tests below run at GOMAXPROCS >= 2:
// with one processor the automatic width is 1 and there is nothing to hand
// over to.

// atLeastProcs raises GOMAXPROCS to n for the rest of the test.
func atLeastProcs(t *testing.T, n int) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// slowCall is a box body well over boxEscalateAfter.
const slowCall = 20 * boxEscalateAfter

func TestBoxAutoWidthHandsOverMidStream(t *testing.T) {
	bothPlans(t, testBoxAutoWidthHandsOverMidStream)
}

func testBoxAutoWidthHandsOverMidStream(t *testing.T, m execMode) {
	atLeastProcs(t, 2)
	// Cheap for the first half of the stream, sleeping for the second,
	// inside a deterministic split whose sort markers cross the box after
	// every record — before, during and after the hand-over.
	const n, cheap = 120, 60
	mk := func() Node {
		jump := NewBox("jump", MustParseSignature("(<seq>) -> (<seq>,<part>)"),
			func(args []any, out *Emitter) error {
				seq := args[0].(int)
				if seq >= cheap {
					time.Sleep(slowCall)
				}
				for part := 0; part < 2; part++ {
					if err := out.Out(1, seq, part); err != nil {
						return err
					}
				}
				return nil
			})
		return SplitDet(jump, "k")
	}
	inputs := func() []*Record {
		return seqInputs(n, func(i int, r *Record) { r.SetTag("k", i%2) })
	}
	want, _ := m.runNet(t, mk(), inputs(), WithBoxWorkers(1))
	got, stats := m.runNet(t, mk(), inputs())
	if renderStream(got) != renderStream(want) {
		t.Fatalf("output differs from the W=1 sequence:\n--- want ---\n%s--- got ---\n%s",
			renderStream(want), renderStream(got))
	}
	// Both replicas were inline while the box was cheap and handed over
	// once it turned slow: each is one instance, counted once.
	for key, want := range map[string]int64{
		"box.jump.instances": 2, "box.jump.escalated": 2,
		"box.jump.calls": n, "box.jump.emitted": 2 * n, "box.jump.cancelled": 0,
	} {
		if got := stats.Counter(key); got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	if got, want := stats.Max("box.jump.concurrency"), int64(runtime.GOMAXPROCS(0)); got != want {
		t.Errorf("concurrency = %d, want %d", got, want)
	}
}

// TestBoxAutoWidthHandsOverHalfFilledJoin: a stepped replica leaves its
// dispatcher with its stage state.  Replica 1 of a deterministic split of
// join..box has stored its {a} when the box — stepped for replica 0 until
// then — turns slow; its {b} arrives after the verdict, so the replica is
// handed over holding half a join, and the join must still fire.
func TestBoxAutoWidthHandsOverHalfFilledJoin(t *testing.T) {
	bothPlans(t, testBoxAutoWidthHandsOverHalfFilledJoin)
}

func testBoxAutoWidthHandsOverHalfFilledJoin(t *testing.T, m execMode) {
	atLeastProcs(t, 2)
	const cheap, slow, tail = 20, 2 * boxEscalateRun, 10
	mk := func() Node {
		sum := NewBox("hs_sum", MustParseSignature("(<k>,<seq>) -> (<k>,<seq>,<summed>)"),
			func(args []any, out *Emitter) error {
				if seq := args[1].(int); seq >= cheap {
					time.Sleep(slowCall)
				}
				return out.Out(1, args[0].(int), args[1].(int), 1)
			})
		return NamedSplitDet("hs_split", Serial(
			NamedSync("hs_join", MustParsePattern("{a}"), MustParsePattern("{b}")), sum), "k")
	}
	inputs := func() []*Record {
		var recs []*Record
		add := func(field string, k int) {
			recs = append(recs, AcquireRecord().SetField(field, len(recs)).SetTag("k", k).SetTag("seq", len(recs)))
		}
		add("a", 1) // replica 1: half a join
		add("a", 0)
		add("b", 0)                  // replica 0 joins; from here on its cell is an identity
		for len(recs) < cheap+slow { // cheap calls, then slow ones: the verdict
			add("a", 0)
		}
		add("b", 1) // replica 1 leaves the dispatcher, then joins
		for i := 0; i < tail; i++ {
			add("a", i%2)
		}
		return recs
	}
	live := poolLiveSettled(t)
	want, _ := m.runNet(t, mk(), inputs(), WithBoxWorkers(1))
	got, stats := m.runNet(t, mk(), inputs())
	if renderStream(got) != renderStream(want) {
		t.Fatalf("output differs from the W=1 sequence:\n--- want ---\n%s--- got ---\n%s",
			renderStream(want), renderStream(got))
	}
	for key, want := range map[string]int64{
		"sync.hs_join.fired": 2, "sync.hs_join.starved": 0,
		"box.hs_sum.instances": 2, "box.hs_sum.escalated": 2,
		"box.hs_sum.calls": int64(len(want)), "box.hs_sum.cancelled": 0,
	} {
		if got := stats.Counter(key); got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	waitPoolLive(t, live)
}

func TestBoxAutoWidthIgnoresBackpressure(t *testing.T) {
	bothPlans(t, testBoxAutoWidthIgnoresBackpressure)
}

func testBoxAutoWidthIgnoresBackpressure(t *testing.T, m execMode) {
	atLeastProcs(t, 2)
	// A cheap box behind a consumer that takes slowCall per record: every
	// Out blocks far longer than boxEscalateAfter, and none of that is the
	// box's own service time.
	const n = 4 * boxEscalateRun
	base := goroutineCount()
	h := m.Start(context.Background(), incBox("bp", 1), WithBuffer(0), WithStreamBatch(1))
	go h.feed(seqInputs(n, func(i int, r *Record) { r.SetTag("n", i) }))
	peak := 0
	for got := 0; got < n; got++ {
		if _, ok := <-h.Out(); !ok {
			t.Fatalf("output closed after %d of %d records", got, n)
		}
		time.Sleep(slowCall)
		if g := runtime.NumGoroutine(); g > peak {
			peak = g
		}
	}
	h.Wait()
	stats := h.Stats()
	if esc, conc := stats.Counter("box.bp.escalated"), stats.Max("box.bp.concurrency"); esc != 0 || conc != 1 {
		t.Fatalf("escalated = %d, concurrency = %d: backpressure was taken for service time", esc, conc)
	}
	// The run's own goroutines: feeder, box node, output adapter.  A
	// releaser or a worker would be a fourth.
	if peak > base+3 {
		t.Fatalf("goroutines peaked at %d over a base of %d, want at most 3 more", peak, base)
	}
}

func TestBoxAutoWidthVerdictIsRemembered(t *testing.T) {
	bothPlans(t, testBoxAutoWidthVerdictIsRemembered)
}

func testBoxAutoWidthVerdictIsRemembered(t *testing.T, m execMode) {
	atLeastProcs(t, 2)
	// First run: the box sleeps, so the engine hands it over.  Second run
	// of the same plan: every invocation waits until two are in flight,
	// which only an instance concurrent from its first record can satisfy.
	var rendezvous atomic.Bool
	var inflight atomic.Int32
	box := NewBox("mem", MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			if !rendezvous.Load() {
				time.Sleep(slowCall)
				return out.Out(1, args[0].(int))
			}
			inflight.Add(1)
			deadline := time.After(5 * time.Second)
			for inflight.Load() < 2 {
				select {
				case <-deadline:
					return errors.New("second run did not start concurrent")
				case <-out.Done():
					return ErrCancelled
				case <-time.After(100 * time.Microsecond):
				}
			}
			return out.Out(1, args[0].(int))
		})
	p := m.Compile(box)
	inputs := func(n int) []*Record {
		return seqInputs(n, func(i int, r *Record) { r.SetTag("n", i) })
	}
	out, stats, err := p.RunAll(context.Background(), inputs(4*boxEscalateRun))
	if err != nil || len(out) != 4*boxEscalateRun {
		t.Fatalf("first run: %d records, err %v", len(out), err)
	}
	if esc, hw := stats.Counter("box.mem.escalated"), stats.Max("box.mem.inflight"); esc != 1 || hw < 2 {
		t.Fatalf("first run: escalated = %d, inflight high-water = %d, want 1 and >= 2", esc, hw)
	}
	rendezvous.Store(true)
	var errs atomic.Int32
	out, stats, err = p.RunAll(context.Background(), inputs(2),
		WithErrorHandler(func(error) { errs.Add(1) }))
	if err != nil || len(out) != 2 || errs.Load() != 0 {
		t.Fatalf("second run: %d records, %d box errors, err %v", len(out), errs.Load(), err)
	}
	if esc, inst := stats.Counter("box.mem.escalated"), stats.Counter("box.mem.instances"); esc != 1 || inst != 1 {
		t.Fatalf("second run: escalated = %d, instances = %d, want 1 and 1", esc, inst)
	}
}

func TestBoxAutoWidthCancelDuringHandOver(t *testing.T) {
	bothPlans(t, testBoxAutoWidthCancelDuringHandOver)
}

func testBoxAutoWidthCancelDuringHandOver(t *testing.T, m execMode) {
	atLeastProcs(t, 2)
	base, live := goroutineCount(), poolLiveSettled(t)
	// The hand-over follows slow call number boxEscalateRun.  Cancel from
	// inside the calls around it, asynchronously, so the cancellation lands
	// before, within and just after the switch.
	for i := 0; i < 60; i++ {
		var calls atomic.Int32
		cancelAt := int32(boxEscalateRun - 1 + i%3)
		cancel := make(chan func(), 1)
		box := NewBox("hoc", MustParseSignature("(<n>) -> (<n>)"),
			func(args []any, out *Emitter) error {
				time.Sleep(2 * boxEscalateAfter)
				if calls.Add(1) == cancelAt {
					go (<-cancel)()
				}
				return out.Out(1, args[0].(int))
			})
		// Unbuffered, unbatched streams: a hard cancel drops whatever sits
		// in a stream's buffer without a release, which would drown the
		// ledger this test reads; with nothing buffered every record is in
		// some component's hands when the cancellation lands.
		h := m.Start(context.Background(), box, WithBuffer(0), WithStreamBatch(1))
		cancel <- h.Cancel
		go func() {
			for j := 0; ; j++ {
				r := AcquireRecord().SetTag("n", j)
				if h.Send(r) != nil {
					ReleaseRecord(r) // it never entered the network
					return
				}
			}
		}()
		for range h.Out() {
		}
		h.Wait()
	}
	waitForGoroutines(t, base)
	waitPoolLive(t, live)
}
