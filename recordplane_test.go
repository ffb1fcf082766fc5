// The zero-allocation gate on the record plane: three steady-state loops
// over a warm persistent handle, each of which must move records without
// allocating.  What the loops cost is priced by `go run ./benchmark`
// (`core.arena.*`, `allocs_per_op` @ `filter_chain`); here only the count
// is asserted.
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/snet"
)

// compile is this package's one route from a Node to something that runs:
// the plan, or a failed test on type errors.
func compile(tb testing.TB, net snet.Node, opts ...snet.CompileOption) *snet.Plan {
	tb.Helper()
	plan, err := snet.Compile(net, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// drainHandle shuts a persistent handle down gracefully: close the
// input, drain the in-flight records, wait.  Cancel would strand pooled
// records in stream buffers and skew the arena ledger for later tests in the
// same binary.
func drainHandle(h *snet.Handle) {
	h.Close()
	for range h.Out() {
	}
	h.Wait()
}

// benchRecordPlaneTaps streams records through a 32-deep pipeline of
// stage(i) over one persistent handle, ping-ponging a fixed in-flight
// population: the record received from the output is sent straight back in.
// Taps forward records untouched and frames recycle through the slab arena,
// so the steady state is allocation-free.  Bare taps at B=1 are one
// single-goroutine segment; taps inside root-spine sites at B=8 are the
// stream plane, every site a part of its own with streams between them, and
// must stay just as allocation-free.  hops is set to the stream records the
// run counted per record sent.
func benchRecordPlaneTaps(stage func(i int) snet.Node, batch int, hops *float64) func(*testing.B) {
	return func(b *testing.B) {
		const depth, inflight = 32, 64
		stages := make([]snet.Node, depth)
		for i := range stages {
			stages[i] = stage(i)
		}
		h := compile(b, snet.Serial(stages...)).
			Start(context.Background(), snet.WithBoxWorkers(1), snet.WithStreamBatch(batch))
		for i := 0; i < inflight; i++ {
			if err := h.Send(snet.NewRecord().SetTag("n", i)); err != nil {
				b.Fatal(err)
			}
		}
		lap := func(n int) {
			for i := 0; i < n; i++ {
				r, ok := <-h.Out()
				if !ok {
					b.Fatal("output closed")
				}
				if err := h.Send(r); err != nil {
					b.Fatal(err)
				}
			}
		}
		// Warm laps prime every stream's slab and pool population; the forced
		// collection in between takes the sync.Pool clear a GC would otherwise
		// inflict mid-measurement (the measured loop is allocation-free, so no
		// further collection triggers).
		lap(inflight)
		runtime.GC()
		lap(inflight)
		b.ReportAllocs()
		b.ResetTimer()
		lap(b.N)
		b.StopTimer()
		drainHandle(h)
		*hops = float64(h.Stats().Counter("stream.records")) / float64(3*inflight+b.N)
	}
}

// benchRecordPlaneRouting drives the routing shape — a wide Parallel of
// per-branch filters — terminated by a sink box, so every pooled filter
// output is released inside the network and the arena runs as a closed
// loop: the filter acquires what the sink releases.  Inputs are a fixed
// caller-owned population resent round-robin (filters copy, never mutate).
// Deterministic, the site also broadcasts a sort marker per record and its
// merger buffers each branch's records until their region is complete.
func benchRecordPlaneRouting(det bool) func(*testing.B) {
	return func(b *testing.B) {
		const width, population = 16, 256
		branches := make([]snet.Node, width)
		for i := range branches {
			branches[i] = snet.MustFilter(fmt.Sprintf("{a,x%d} -> {a,x%d}", i, i))
		}
		sink := snet.NewBox("sink", snet.MustParseSignature("(a) -> (a)"),
			func([]any, *snet.Emitter) error { return nil })
		par := snet.Parallel
		if det {
			par = snet.ParallelDet
		}
		h := compile(b, snet.Serial(par(branches...), sink)).
			Start(context.Background(), snet.WithBoxWorkers(1), snet.WithStreamBatch(8))
		defer drainHandle(h)
		inputs := make([]*snet.Record, population)
		for i := range inputs {
			inputs[i] = snet.NewRecord().SetField("a", i).
				SetField(fmt.Sprintf("x%d", i%width), i)
		}
		warmLap := func() { // warm the routing memos and the arena
			for _, r := range inputs {
				if err := h.Send(r); err != nil {
					b.Fatal(err)
				}
			}
		}
		for lap := 0; lap < 4; lap++ {
			warmLap()
		}
		runtime.GC() // absorb the pool-clearing collection outside the window
		for lap := 0; lap < 16; lap++ {
			warmLap() // refill the in-flight arena population
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := h.Send(inputs[i%population]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	}
}

// TestRecordPlaneZeroAlloc runs each loop under testing.Benchmark: the
// record plane must move records without allocating once the arenas are
// warm.  A regression here means a new per-record allocation crept into
// the transport, the routing tables, or the filter/arena loop.
func TestRecordPlaneZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	if raceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping; run without -race")
	}
	tap := func(i int) snet.Node { return snet.Observe(fmt.Sprintf("tap%d", i), nil) }
	site := func(i int) snet.Node { return snet.Parallel(tap(i), snet.MustFilter("{<never>} -> {<never>}")) }
	var pipelineHops, fusedHops float64
	for _, c := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"pipeline", benchRecordPlaneTaps(site, 8, &pipelineHops)},
		{"fused", benchRecordPlaneTaps(tap, 1, &fusedHops)},
		{"routing", benchRecordPlaneRouting(false)},
		{"routing-det", benchRecordPlaneRouting(true)},
	} {
		res := testing.Benchmark(c.fn)
		if a := res.AllocsPerOp(); a != 0 {
			t.Errorf("%s: %d allocs/op (%d B/op), want 0", c.name, a, res.AllocedBytesPerOp())
		}
	}
	// The pipeline row measures the stream plane only while every record
	// crosses a stream per site.
	if pipelineHops < 32 {
		t.Errorf("pipeline: %.1f stream records per record sent, want at least 32", pipelineHops)
	}
	t.Logf("stream records per record sent: pipeline %.1f, fused %.1f", pipelineHops, fusedHops)
}
