package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
)

// E21 — the record-plane experiment: slot-array records, interned shapes and
// arena recycling under sustained load.  Two shapes bracket the hot paths the
// refactor targets: the E13 deep tap pipeline (pure transport: every record
// crosses `depth` streams untouched) and the E16 wide routing net (every
// record is dispatched by shape, rewritten by a filter into a pooled output,
// and consumed by a sink — the arena's closed loop).  Each row reports
// end-to-end throughput plus two invariants: steady-state allocations per
// record over a warm persistent handle (the zero-alloc claim, enforced in CI
// by TestRecordPlaneZeroAlloc) and the arena's live-record delta after the
// run (the leak ledger).

const e21Depth = 32

// e21Pipeline is the deep tap chain.  Its subject is the record plane under
// the frame transport, so it pins the stage-per-goroutine plan: fused, the
// whole chain would be one segment with no stream in it (that is E22).
func e21Pipeline() *core.Plan {
	stages := make([]core.Node, e21Depth)
	for i := range stages {
		stages[i] = core.Observe(fmt.Sprintf("tap%d", i), nil)
	}
	return core.MustCompile(core.Serial(stages...), core.WithFusion(false))
}

func e21Routing(width int) (net, sunk *core.Plan) {
	branches := make([]core.Node, width)
	for i := range branches {
		branches[i] = core.MustFilter(fmt.Sprintf("{a,x%d} -> {a,x%d}", i, i))
	}
	sink := core.NewBox("sink", core.MustParseSignature("(a) -> (a)"),
		func([]any, *core.Emitter) error { return nil })
	return core.MustCompile(core.Parallel(branches...)),
		core.MustCompile(core.Serial(core.Parallel(branches...), sink))
}

func e21PipelineInputs(n int) []*core.Record {
	recs := make([]*core.Record, n)
	for i := range recs {
		recs[i] = core.NewRecord().SetTag("n", i)
	}
	return recs
}

func e21RoutingInputs(n, width int) []*core.Record {
	recs := make([]*core.Record, n)
	for i := range recs {
		recs[i] = core.NewRecord().SetField("a", i).
			SetField(fmt.Sprintf("x%d", i%width), i)
	}
	return recs
}

// e21SteadyAllocs measures heap allocations per record over a warm
// persistent handle.  prime sends the initial population and runs warm laps;
// step moves exactly one record.  The mallocs delta is read across ops steps,
// so handle construction, arena population and routing-memo warmup are all
// excluded — what remains is the per-record cost of the plane itself.
func e21SteadyAllocs(prime func(), step func(), ops int) float64 {
	prime()
	// A collection clears sync.Pool caches, so a GC scheduled by garbage from
	// *earlier* experiments would force the whole in-flight arena population
	// to reallocate mid-window and masquerade as per-record cost.  Take that
	// collection now and re-warm; the measured window itself is allocation-
	// free, so it never triggers another one.
	runtime.GC()
	for i := 0; i < 8192; i++ {
		step()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < ops; i++ {
		step()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(ops)
}

// e21Drain shuts a steady-state handle down gracefully: close the input,
// drain the remaining in-flight records out, then wait.  A plain Cancel would
// strand pooled records in stream buffers and show up as a spurious arena
// live delta.
func e21Drain(h *core.Handle) {
	h.Close()
	for range h.Out() {
	}
	h.Wait()
}

// e21PipelineSteady is the ping-pong loop of BenchmarkRecordPlane/pipeline:
// a fixed in-flight population, each output record resent as the next input.
func e21PipelineSteady(batch, ops int) float64 {
	h := e21Pipeline().Start(context.Background(),
		core.WithBoxWorkers(1), core.WithStreamBatch(batch))
	defer e21Drain(h)
	const inflight = 64
	step := func() {
		r, ok := <-h.Out()
		if !ok {
			panic("E21: pipeline output closed")
		}
		if err := h.Send(r); err != nil {
			panic(err)
		}
	}
	prime := func() {
		for _, r := range e21PipelineInputs(inflight) {
			if err := h.Send(r); err != nil {
				panic(err)
			}
		}
		for i := 0; i < inflight; i++ {
			step()
		}
	}
	return e21SteadyAllocs(prime, step, ops)
}

// e21RoutingSteady is the closed-loop shape of BenchmarkRecordPlane/routing:
// a caller-owned input population resent round-robin into the sink-terminated
// net, so pooled filter outputs are acquired and released inside the run.
func e21RoutingSteady(width, batch, ops int) float64 {
	_, net := e21Routing(width)
	h := net.Start(context.Background(),
		core.WithBoxWorkers(1), core.WithStreamBatch(batch))
	defer e21Drain(h)
	inputs := e21RoutingInputs(256, width)
	i := 0
	step := func() {
		if err := h.Send(inputs[i%len(inputs)]); err != nil {
			panic(err)
		}
		i++
	}
	prime := func() {
		for lap := 0; lap < 4; lap++ {
			for range inputs {
				step()
			}
		}
	}
	return e21SteadyAllocs(prime, step, ops)
}

// e21LiveDelta polls the arena's live count back toward base after a drained
// run, returning the residual delta (0 means fully accounted).
func e21LiveDelta(base int64) int64 {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if core.PoolStats().Live() == base {
			return 0
		}
		time.Sleep(2 * time.Millisecond)
	}
	return core.PoolStats().Live() - base
}

// E21RecordPlane runs the record-plane experiment and returns the markdown
// table plus the machine-readable data points for the BENCH file.
func E21RecordPlane() (*Table, []Result) {
	t := &Table{
		ID:    "E21",
		Title: "Record plane — slot-array records, interned shapes, arena recycling",
		Claim: "records are the unit the coordination layer touches per message; flattening them to compile-time-interned slot arrays and recycling them through stream-owned arenas removes the per-record heap traffic the map representation paid (the allocation share of the per-message overhead in arXiv:1305.7167)",
		Header: []string{"shape", "records", "param", "median", "records/s",
			"steady allocs/record", "arena live delta"},
	}
	var results []Result
	n, steadyOps := 20000, 50000
	if Smoke {
		n, steadyOps = 2000, 5000
	}

	for _, bsz := range streamBatchSweep {
		base := core.PoolStats().Live()
		inputs := e21PipelineInputs(n)
		plan := e21Pipeline()
		tm := Measure(Reps, func() {
			out, _, err := plan.RunAll(context.Background(), inputs,
				core.WithBoxWorkers(1), core.WithStreamBatch(bsz))
			if err != nil || len(out) != n {
				panic(fmt.Sprintf("E21 pipeline B=%d: out=%d err=%v", bsz, len(out), err))
			}
		})
		allocs := e21PipelineSteady(bsz, steadyOps)
		med := tm.Median()
		t.AddRow(fmt.Sprintf("pipeline depth=%d", e21Depth), n,
			fmt.Sprintf("B=%d", bsz), med,
			fmt.Sprintf("%.0f", float64(n)/med.Seconds()),
			fmt.Sprintf("%.2f", allocs), e21LiveDelta(base))
		results = append(results, Result{
			Experiment:    "E21",
			Params:        map[string]any{"shape": "pipeline", "depth": e21Depth, "batch": bsz},
			RecordsPerSec: float64(n) / med.Seconds(),
			P50Ms:         ms(tm.Percentile(50)),
			P99Ms:         ms(tm.Percentile(99)),
		})
	}

	for _, width := range []int{8, 16, 32} {
		base := core.PoolStats().Live()
		net, _ := e21Routing(width)
		inputs := e21RoutingInputs(n, width)
		tm := Measure(Reps, func() {
			out, _, err := net.RunAll(context.Background(), inputs,
				core.WithBoxWorkers(1), core.WithStreamBatch(8))
			if err != nil || len(out) != n {
				panic(fmt.Sprintf("E21 routing width=%d: out=%d err=%v", width, len(out), err))
			}
		})
		allocs := e21RoutingSteady(width, 8, steadyOps)
		med := tm.Median()
		t.AddRow(fmt.Sprintf("routing width=%d", width), n,
			fmt.Sprintf("W=%d", width), med,
			fmt.Sprintf("%.0f", float64(n)/med.Seconds()),
			fmt.Sprintf("%.2f", allocs), e21LiveDelta(base))
		results = append(results, Result{
			Experiment:    "E21",
			Params:        map[string]any{"shape": "routing", "width": width, "batch": 8},
			RecordsPerSec: float64(n) / med.Seconds(),
			P50Ms:         ms(tm.Percentile(50)),
			P99Ms:         ms(tm.Percentile(99)),
		})
	}

	t.Notes = append(t.Notes,
		"\"steady allocs/record\" is the heap-allocation count per record over a warm persistent handle (mallocs delta across the measured window / records moved) — the pipeline ping-pongs a fixed in-flight population through "+fmt.Sprint(e21Depth)+" taps, the routing shape recirculates caller-owned inputs into a sink-terminated net so pooled filter outputs recycle inside the run; both must stay at 0.00 (enforced by TestRecordPlaneZeroAlloc).  \"arena live delta\" is the record pool's live count after the drained RunAll passes, relative to the pre-run baseline — 0 means acquired = recycled + disowned held exactly.")
	return t, results
}
