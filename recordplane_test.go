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

// benchRecordPlaneTaps streams records through a 32-deep tap pipeline over
// one persistent handle, ping-ponging a fixed in-flight population: the
// record received from the output is sent straight back in.  Taps forward
// records untouched and frames recycle through the slab arena, so the steady
// state is allocation-free.  Un-fused at B=8 is the stream plane: every
// record crosses 32 stream hops.  Fused at B=1 the 32 taps are one
// single-goroutine segment, which must stay just as allocation-free as the
// stream plane it bypasses.
func benchRecordPlaneTaps(fused bool, batch int) func(*testing.B) {
	return func(b *testing.B) {
		const depth, inflight = 32, 64
		stages := make([]snet.Node, depth)
		for i := range stages {
			stages[i] = snet.Observe(fmt.Sprintf("tap%d", i), nil)
		}
		h := compile(b, snet.Serial(stages...), snet.WithFusion(fused)).
			Start(context.Background(), snet.WithBoxWorkers(1), snet.WithStreamBatch(batch))
		defer drainHandle(h)
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
	}
}

// benchRecordPlaneRouting drives the routing shape — a wide Parallel of
// per-branch filters — terminated by a sink box, so every pooled filter
// output is released inside the network and the arena runs as a closed
// loop: the filter acquires what the sink releases.  Inputs are a fixed
// caller-owned population resent round-robin (filters copy, never mutate).
func benchRecordPlaneRouting(b *testing.B) {
	const width, population = 16, 256
	branches := make([]snet.Node, width)
	for i := range branches {
		branches[i] = snet.MustFilter(fmt.Sprintf("{a,x%d} -> {a,x%d}", i, i))
	}
	sink := snet.NewBox("sink", snet.MustParseSignature("(a) -> (a)"),
		func([]any, *snet.Emitter) error { return nil })
	h := compile(b, snet.Serial(snet.Parallel(branches...), sink)).
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
	for _, c := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"pipeline", benchRecordPlaneTaps(false, 8)},
		{"fused", benchRecordPlaneTaps(true, 1)},
		{"routing", benchRecordPlaneRouting},
	} {
		res := testing.Benchmark(c.fn)
		if a := res.AllocsPerOp(); a != 0 {
			t.Errorf("%s: %d allocs/op (%d B/op), want 0", c.name, a, res.AllocedBytesPerOp())
		}
	}
}
