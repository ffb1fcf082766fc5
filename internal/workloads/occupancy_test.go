package workloads

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/snet"
)

// The verifier's occupancy bound (internal/analysis) is a claim about runs:
// no schedule holds more records at once.  These tests watch real runs of
// the two workloads whose shape the fan-in plumbing dominates and pin the
// observation under the bound — a plumbing change that adds a buffer the
// model does not know moves the wrong way here.

// verifiedBound is the plan's static high-water bound under the default
// capacity assumptions, which the runs below stay within (buffer 32, batch
// 8, box width 4, at most 64 replicas per site).
func verifiedBound(t *testing.T, p *snet.Plan) int64 {
	t.Helper()
	rep := analysis.Analyze(p)
	if !rep.DeadlockFree() || rep.Bound == nil || !rep.Bound.Finite {
		t.Fatalf("plan does not certify: %v", rep.Bound)
	}
	return rep.Bound.Total
}

// TestWavefrontInFlightWithinBound: the whole grid unfolds from one record,
// so the records in flight are the runtime's own — all from the arena, whose
// ledger is the observation.  It is read by a goroutine of its own and, so
// that a run shorter than a scheduling quantum is observed too, by the run
// itself whenever a record enters a synchrocell.
func TestWavefrontInFlightWithinBound(t *testing.T) {
	bothPlans(t, func(t *testing.T, compile func(snet.Node) *snet.Plan) {
		const n = 24 // 47 stages, at most 23 join replicas each
		plan := compile(WavefrontNet(n, 5))
		bound := verifiedBound(t, plan)
		base := snet.PoolStats().Live()
		var peak atomic.Int64
		sample := func() {
			if live := snet.PoolStats().Live() - base; live > peak.Load() {
				peak.Store(live)
			}
		}
		stop, sampled := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(sampled)
			for {
				select {
				case <-stop:
					return
				default:
				}
				sample()
				runtime.Gosched()
			}
		}()
		atJoin := snet.TracerFunc(func(node, dir string, _ *snet.Record) {
			if node == "wave_join" && dir == "in" {
				sample()
			}
		})
		out, _, err := plan.RunAll(context.Background(), []*snet.Record{WavefrontSeed()}, snet.WithBoxWorkers(1), snet.WithTracer(atJoin))
		close(stop)
		<-sampled
		if err != nil || len(out) != 1 || out[0].MustField("result").(int) != WavefrontReference(n, 5) {
			t.Fatalf("run: %v %v", out, err)
		}
		if p := peak.Load(); p < 2 || p > bound {
			t.Fatalf("observed %d records in flight, bound %d", p, bound)
		}
	})
}

// TestWebPipeInFlightWithinBound: every request yields one response, so
// accepted minus delivered is the number of records inside the network.  The
// sender never waits for a response; backpressure alone limits it.
func TestWebPipeInFlightWithinBound(t *testing.T) {
	bothPlans(t, func(t *testing.T, compile func(snet.Node) *snet.Plan) {
		const requests = 20000
		plan := compile(WebPipeNet())
		bound := verifiedBound(t, plan)
		h := plan.Start(context.Background(), snet.WithBoxWorkers(1))
		defer h.Cancel()
		var sent, peak atomic.Int64
		var received int64
		go func() {
			for i := 0; i < requests; i++ {
				if h.Send(WebPipeRequest(i)) != nil {
					return
				}
				sent.Add(1)
			}
			h.Close()
		}()
		for range h.Out() {
			if inside := sent.Load() - received; inside > peak.Load() {
				peak.Store(inside)
			}
			received++
			if received%64 == 0 {
				time.Sleep(50 * time.Microsecond) // a reader slower than the network: it fills up
			}
		}
		if received != requests {
			t.Fatalf("%d of %d responses", received, requests)
		}
		if p := peak.Load(); p < 2 || p > bound {
			t.Fatalf("observed %d records in flight, bound %d", p, bound)
		}
		t.Logf("peak %d in flight, bound %d", peak.Load(), bound)
	})
}

// TestBurstBoxInFlightWithinBound: a box pinned to one call at a time that
// emits a whole burst per call, a tap after it, and a reader slower than
// both.  Whether the two stages share a segment or not is the plan's
// business; the bound the verifier certifies is computed without knowing, so
// it has to hold either way — every emission must meet the reader's
// backpressure one at a time, not be parked between the stages first.  In
// flight is what the box has emitted and the reader not yet received (the
// arena's ledger would not do: a segment folds it once per input frame, and
// the burst is one).
func TestBurstBoxInFlightWithinBound(t *testing.T) {
	const burst = 20000
	var emitted atomic.Int64
	net := snet.Serial(
		snet.NewBoxConcurrent("burst", snet.MustParseSignature("(<n>) -> (<i>)"),
			func(args []any, out *snet.Emitter) error {
				for i := 0; i < args[0].(int); i++ {
					if err := out.Out(1, i); err != nil {
						return err
					}
					emitted.Add(1)
				}
				return nil
			}, 1),
		snet.Observe("burst_tap", nil))
	bothPlans(t, func(t *testing.T, compile func(snet.Node) *snet.Plan) {
		plan := compile(net)
		bound := verifiedBound(t, plan)
		emitted.Store(0)
		h := plan.Start(context.Background())
		defer h.Cancel()
		if err := h.Send(snet.AcquireRecord().SetTag("n", burst)); err != nil {
			t.Fatal(err)
		}
		h.Close()
		var peak int64
		received := int64(0)
		for range h.Out() {
			if inside := emitted.Load() - received; inside > peak {
				peak = inside
			}
			if received++; received%64 == 0 {
				time.Sleep(20 * time.Microsecond) // the reader sets the pace
			}
		}
		if received != burst {
			t.Fatalf("%d of %d records", received, burst)
		}
		if peak < 2 || peak > bound {
			t.Fatalf("observed %d records in flight, bound %d", peak, bound)
		}
		t.Logf("peak %d in flight, bound %d", peak, bound)
	})
}

// TestWavefrontGoroutinesReturnToBaseline: a 16×16 run unfolds 31 stages and
// 225 join replicas; when RunAll returns, all of that is gone — a branch has
// no relay goroutine that could outlive the merger it fed.
func TestWavefrontGoroutinesReturnToBaseline(t *testing.T) {
	bothPlans(t, func(t *testing.T, compile func(snet.Node) *snet.Plan) {
		plan := compile(WavefrontNet(16, 3))
		time.Sleep(10 * time.Millisecond)
		base := runtime.NumGoroutine()
		for i := 0; i < 3; i++ {
			if out, _, err := plan.RunAll(context.Background(), []*snet.Record{WavefrontSeed()}); err != nil || len(out) != 1 {
				t.Fatalf("run %d: %v %v", i, out, err)
			}
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > base {
			t.Fatalf("%d goroutines after the runs, %d before", g, base)
		}
	})
}

// TestBoundHoldsWhenOutputStalls: the bound is a claim about the worst
// schedule, and the worst schedule is a consumer that never comes.  Each row
// starts a plan, never reads its output, and feeds it until the network takes
// no more; every record it accepted is then parked somewhere inside, and the
// certificate for exactly what the row unfolds (W=1, its depth, its width) has
// to cover them.  A bursting box, pinned wider than one and emitting without
// end, holds what it emitted and what it accepted and has not consumed.  A row
// that stops feeding early only reads low, so the test cannot fail for being
// slow.
func TestBoundHoldsWhenOutputStalls(t *testing.T) {
	pinned := func(name, sig string) snet.Node { // one call at a time, passes its arguments on
		return snet.NewBoxConcurrent(name, snet.MustParseSignature(sig),
			func(args []any, out *snet.Emitter) error { return out.Out(1, args...) }, 1)
	}
	inc := func() snet.Node {
		return snet.NewBoxConcurrent("inc", snet.MustParseSignature("(<n>) -> (<n>)"),
			func(args []any, out *snet.Emitter) error { return out.Out(1, args[0].(int)+1) }, 1)
	}
	star := func(operand snet.Node, exit string, depth int) snet.Node {
		return snet.Star(operand, snet.MustParsePattern(fmt.Sprintf("%s | <n> >= %d", exit, depth)))
	}
	// burst is a box of width w whose every call emits until the run is gone,
	// and what it holds once the feeder has accepted so many.
	burst := func(w int) (snet.Node, func(accepted int64) int64) {
		var calls, emitted atomic.Int64
		return snet.NewBoxConcurrent(fmt.Sprintf("burst_w%d", w), snet.MustParseSignature("(<n>) -> (<n>)"),
				func(args []any, out *snet.Emitter) error {
					for calls.Add(1); out.Out(1, 0) == nil; {
						emitted.Add(1)
					}
					return nil
				}, w),
			func(accepted int64) int64 { return emitted.Load() + accepted - calls.Load() }
	}
	burst2, held2 := burst(2)
	burst4, held4 := burst(4)
	var chain []snet.Node
	for i := 0; i < 8; i++ {
		chain = append(chain, pinned(fmt.Sprintf("stall_c%d", i), "(<n>) -> (<n>)"))
	}
	abc := []string{"a", "b", "c"}
	rows := []struct {
		name         string
		net          snet.Node
		depth, width int                      // what the row unfolds; 1 where it has no such site
		record       func(i int) *snet.Record // the i-th input
		held         func(accepted int64) int64
	}{
		{"serial-8-fused", snet.Serial(chain...), 1, 1,
			func(i int) *snet.Record { return snet.AcquireRecord().SetTag("n", i) }, nil},
		{"parallel-3", snet.Parallel(pinned("stall_a", "(a) -> (a)"), pinned("stall_b", "(b) -> (b)"), pinned("stall_c", "(c) -> (c)")), 1, 1,
			func(i int) *snet.Record { return snet.AcquireRecord().SetField(abc[i%3], i) }, nil},
		{"split-64-stepped", snet.Split(pinned("stall_s", "(<n>) -> (<n>)"), "k"), 1, 64,
			func(i int) *snet.Record { return snet.AcquireRecord().SetTag("n", i).SetTag("k", i%64) }, nil},
		{"split-64-spawned", snet.Split(snet.Parallel(pinned("stall_pa", "(a) -> (a)"), pinned("stall_pb", "(b) -> (b)")), "k"), 1, 64,
			func(i int) *snet.Record { return snet.AcquireRecord().SetField(abc[i/64%2], i).SetTag("k", i%64) }, nil},
		{"star-16", star(inc(), "{<n>}", 16), 16, 1,
			func(i int) *snet.Record { return snet.AcquireRecord().SetTag("n", 0) }, nil},
		{"star-64", star(inc(), "{<n>}", 64), 64, 1,
			func(i int) *snet.Record { return snet.AcquireRecord().SetTag("n", 0) }, nil},
		{"star-8-x-split-4", star(snet.Split(inc(), "k"), "{<n>, <k>}", 8), 8, 4,
			func(i int) *snet.Record { return snet.AcquireRecord().SetTag("n", 0).SetTag("k", i%4) }, nil},
		{"burst-w2", burst2, 1, 1, func(i int) *snet.Record { return snet.AcquireRecord().SetTag("n", i) }, held2},
		{"burst-w4", burst4, 1, 1, func(i int) *snet.Record { return snet.AcquireRecord().SetTag("n", i) }, held4},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			plan, err := snet.Compile(row.net)
			if err != nil {
				t.Fatal(err)
			}
			caps := analysis.DefaultCaps()
			caps.BoxWorkers, caps.StarDepth, caps.SplitWidth = 1, row.depth, row.width
			rep := analysis.AnalyzeWithCaps(plan, caps)
			if !rep.DeadlockFree() || !rep.Bound.Finite {
				t.Fatalf("plan does not certify: %v", rep.Bound)
			}
			h := plan.Start(context.Background(), snet.WithBoxWorkers(1),
				snet.WithMaxStarDepth(row.depth), snet.WithMaxSplitWidth(row.width))
			ctx, stop := context.WithCancel(context.Background())
			var accepted atomic.Int64
			fed := make(chan struct{})
			go func() {
				defer close(fed)
				for i := 0; ; {
					batch := make([]*snet.Record, 64)
					for j := range batch {
						batch[j] = row.record(i)
						i++
					}
					n, err := h.SendBatch(ctx, batch)
					accepted.Add(int64(n))
					if err != nil {
						return
					}
				}
			}()
			for last, since := int64(-1), time.Now(); time.Since(since) < 1500*time.Millisecond; time.Sleep(20 * time.Millisecond) {
				if now := accepted.Load(); now != last {
					last, since = now, time.Now()
				}
			}
			stop()
			<-fed
			held := accepted.Load() // nothing was delivered: nobody reads h.Out()
			if row.held != nil {
				held = row.held(held)
			}
			h.Cancel()
			h.Wait()
			t.Logf("%s: %d records held and never delivered, bound %d", row.name, held, rep.Bound.Total)
			if held > rep.Bound.Total {
				t.Errorf("%d records held against a certified bound of %d", held, rep.Bound.Total)
			}
		})
	}
}
