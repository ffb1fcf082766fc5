package bench

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// E22 — the pipeline-fusion experiment: the compile-time pass
// (internal/core/fuse.go) collapses serial chains of lightweight stages
// into single-goroutine slot programs, so a D-stage chain of filters, taps
// and sequential boxes costs zero stream hops and zero goroutine handoffs
// between its stages.  The sweep crosses stage count D with batch size B in
// both execution modes over the two chain populations that bracket the
// fusible spectrum: pure Observe taps (the E13/E21 transport shape) and
// W=1 boxes (per-stage user code, emitter in buffer mode).  Fusion and
// batching attack the same per-hop synchronization cost from different
// ends — B amortizes a hop, fusion deletes it — so the speedup column is
// fused vs un-fused at the *same* B.

var e22Depths = []int{4, 8, 16, 32}

func e22Taps(depth int) core.Node {
	stages := make([]core.Node, depth)
	for i := range stages {
		stages[i] = core.Observe(fmt.Sprintf("tap%d", i), nil)
	}
	return core.Serial(stages...)
}

func e22Boxes(depth int) core.Node {
	stages := make([]core.Node, depth)
	for i := range stages {
		stages[i] = core.NewBoxConcurrent(fmt.Sprintf("sq%d", i),
			core.MustParseSignature("(<n>) -> (<n>)"),
			func(args []any, out *core.Emitter) error {
				return out.Out(1, args[0].(int))
			}, 1)
	}
	return core.Serial(stages...)
}

func e22Inputs(n int) []*core.Record {
	recs := make([]*core.Record, n)
	for i := range recs {
		recs[i] = core.NewRecord().SetTag("n", i)
	}
	return recs
}

// e22Steady is the E21 ping-pong loop over a compiled plan: a fixed
// in-flight population through a fused deep pipeline, reporting steady-state
// heap allocations per record (the zero-alloc claim extended to fused
// segments — the slot programs and op buffers must recycle like the stream
// plane they replace).
func e22Steady(plan *core.Plan, batch, ops int) float64 {
	h := plan.Start(context.Background(),
		core.WithBoxWorkers(1), core.WithStreamBatch(batch))
	defer e21Drain(h)
	const inflight = 64
	step := func() {
		r, ok := <-h.Out()
		if !ok {
			panic("E22: pipeline output closed")
		}
		if err := h.Send(r); err != nil {
			panic(err)
		}
	}
	prime := func() {
		for _, r := range e22Inputs(inflight) {
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

// E22PipelineFusion runs the fusion experiment and returns the markdown
// table plus machine-readable data points for the BENCH file.
func E22PipelineFusion() (*Table, []Result) {
	t := &Table{
		ID:    "E22",
		Title: "Pipeline fusion — serial chains of lightweight stages as single-goroutine slot programs",
		Claim: "the component-graph granularity the coordination program describes need not be the execution granularity: fusing lightweight stages at compile time removes the per-hop synchronization that dominates fine-grained S-Net workloads (arXiv:1305.7167), complementing the frame transport's B-fold amortization (E13)",
		Header: []string{"chain", "records", "depth", "B", "mode", "median",
			"records/s", "fused speedup"},
	}
	var results []Result
	n, steadyOps := 10000, 50000
	if Smoke {
		n, steadyOps = 1000, 5000
	}

	shapes := []struct {
		name string
		mk   func(depth int) core.Node
	}{
		{"identity taps", e22Taps},
		{"W=1 id boxes", e22Boxes},
	}
	for _, shape := range shapes {
		for _, depth := range e22Depths {
			for _, bsz := range []int{1, 8} {
				var fusedMed, unfusedMed float64
				for _, fuse := range []bool{false, true} {
					plan, err := core.Compile(shape.mk(depth), core.WithFusion(fuse))
					if err != nil {
						panic(fmt.Sprintf("E22 compile %s depth=%d: %v", shape.name, depth, err))
					}
					mode := "unfused"
					if fuse {
						mode = "fused"
					}
					inputs := e22Inputs(n)
					tm := Measure(Reps, func() {
						out, _, err := plan.RunAll(context.Background(), inputs,
							core.WithBoxWorkers(1), core.WithStreamBatch(bsz))
						if err != nil || len(out) != n {
							panic(fmt.Sprintf("E22 %s depth=%d B=%d: out=%d err=%v",
								shape.name, depth, bsz, len(out), err))
						}
					})
					med := tm.Median().Seconds()
					if fuse {
						fusedMed = med
					} else {
						unfusedMed = med
					}
					speedup := ""
					if fuse && fusedMed > 0 {
						speedup = fmt.Sprintf("%.2fx", unfusedMed/fusedMed)
					}
					t.AddRow(shape.name, n, depth, bsz, mode, tm.Median(),
						fmt.Sprintf("%.0f", float64(n)/med), speedup)
					results = append(results, Result{
						Experiment: "E22",
						Params: map[string]any{
							"shape": shape.name, "depth": depth,
							"batch": bsz, "mode": mode,
						},
						RecordsPerSec: float64(n) / med,
						P50Ms:         ms(tm.Percentile(50)),
						P99Ms:         ms(tm.Percentile(99)),
					})
				}
			}
		}
	}

	// The headline invariant: steady-state allocations per record through a
	// fully fused deep pipeline stay at zero (cf. E21; enforced in CI by
	// TestRecordPlaneZeroAlloc's fused case).
	deep, err := core.Compile(e22Taps(32))
	if err != nil {
		panic(fmt.Sprintf("E22 steady compile: %v", err))
	}
	allocs := e22Steady(deep, 1, steadyOps)
	t.Notes = append(t.Notes,
		fmt.Sprintf("steady allocs/record through the fused depth-32 tap pipeline at B=1: %.2f (measured E21-style over a warm persistent handle; must stay at 0.00).", allocs),
		"\"fused speedup\" compares the fused run against the un-fused run at the same (depth, B); the un-fused rows are the same plans compiled with WithFusion(false).")
	return t, results
}
