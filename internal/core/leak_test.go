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

func TestNoLeakAfterNormalDrain(t *testing.T) { bothPlans(t, testNoLeakAfterNormalDrain) }

func testNoLeakAfterNormalDrain(t *testing.T, m execMode) {
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

func TestNoLeakAfterCancel(t *testing.T) { bothPlans(t, testNoLeakAfterCancel) }

func testNoLeakAfterCancel(t *testing.T, m execMode) {
	base := goroutineCount()
	for i := 0; i < 5; i++ {
		slow := NewBox("lslow", MustParseSignature("(<n>) -> (<n>)"),
			func(args []any, out *Emitter) error {
				time.Sleep(time.Millisecond)
				return out.Out(1, args[0].(int))
			})
		n := Split(Serial(slow, NamedStar("lloop", decBox(), MustParsePattern("{<done>}"))), "k")
		h := m.Start(context.Background(), n)
		for j := 0; j < 20; j++ {
			_ = h.Send(NewRecord().SetTag("n", 10).SetTag("k", j%4))
		}
		h.Cancel()
		h.Wait()
	}
	waitForGoroutines(t, base+3)
}

func TestNoLeakDeterministicNets(t *testing.T) { bothPlans(t, testNoLeakDeterministicNets) }

func testNoLeakDeterministicNets(t *testing.T, m execMode) {
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
			bothPlans(t, func(t *testing.T, m execMode) {
				base := goroutineCount()
				for i := 0; i < 5; i++ {
					h := m.Start(context.Background(), mk(), WithBuffer(1))
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
func TestDiscardedRecordsCounted(t *testing.T) { bothPlans(t, testDiscardedRecordsCounted) }

func testDiscardedRecordsCounted(t *testing.T, m execMode) {
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

// TestNoLeakSplitReplicaChurn is the standalone replica-leak regression: a
// long-lived split run whose key population churns must not accumulate
// replica goroutines.  Every replica is retired through the in-band close
// protocol, and the live-replica gauge must read 0 while the run is still up
// (the gauge only grew before this fix).
func TestNoLeakSplitReplicaChurn(t *testing.T) {
	base := goroutineCount()
	t.Run("close", func(t *testing.T) {
		bothPlans(t, func(t *testing.T, m execMode) {
			n := NamedSplit("churn",
				Serial(incBox("ci", 1), NamedStar("cloop", decBox(), MustParsePattern("{<done>}"))),
				"k")
			h := m.Start(context.Background(), n, WithBuffer(4))
			go func() {
				for r := range h.Out() {
					_ = r
				}
			}()
			const keys = 40
			for k := 0; k < keys; k++ {
				if err := h.Send(NewRecord().SetTag("n", 3).SetTag("k", k)); err != nil {
					t.Fatal(err)
				}
				if err := h.Send(NewReplicaClose("k", k)); err != nil {
					t.Fatal(err)
				}
			}
			gauge := func() int64 { return h.Stats().Counter("split.churn.replicas") }
			reclaimed := func() int64 { return h.Stats().Counter("split.churn.closed") }
			// Wait for all reclamations first — the gauge transiently reads
			// 0 between churn pairs still queued in the boundary stream.
			deadline := time.Now().Add(5 * time.Second)
			for reclaimed() != keys && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if r := reclaimed(); r != keys {
				t.Fatalf("reclaimed %d of %d replicas", r, keys)
			}
			for gauge() != 0 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if g := gauge(); g != 0 {
				t.Fatalf("%d replicas still live after churn", g)
			}
			// Replica goroutines must be gone while the run itself is live.
			waitForGoroutines(t, base+16)
			h.Close()
			h.Wait()
		})
	})
	waitForGoroutines(t, base+3)
}

func TestNoLeakUnconsumedOutput(t *testing.T) { bothPlans(t, testNoLeakUnconsumedOutput) }

func testNoLeakUnconsumedOutput(t *testing.T, m execMode) {
	// Cancel with records still queued in the output adapter and a
	// sender still blocked on backpressure; h.Out() is never read.
	base := goroutineCount()
	for i := 0; i < 5; i++ {
		h := m.Start(context.Background(), incBox("u", 1), WithBuffer(2))
		sendDone := make(chan struct{})
		go func() {
			defer close(sendDone)
			for j := 0; j < 10; j++ {
				if h.Send(recN(j)) != nil {
					return
				}
			}
		}()
		time.Sleep(time.Millisecond)
		h.Cancel()
		<-sendDone
		h.Wait()
	}
	waitForGoroutines(t, base+3)
}
