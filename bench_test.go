// Package repro's benchmark harness: one testing.B benchmark per experiment
// of the paper's evaluation (see the experiment index in DESIGN.md and the
// recorded results in EXPERIMENTS.md).  The same workloads power
// cmd/experiments, which prints the full markdown tables.
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/workloads"
	"repro/sac"
	saclang "repro/sac/lang"
	"repro/snet"
	"repro/snet/service"
	"repro/sudoku"
)

var pool1 = sac.NewPool(1)

func fixed(b *testing.B, name string) *sudoku.Board {
	b.Helper()
	p, ok := sudoku.Fixed9x9()[name]
	if !ok {
		b.Fatalf("unknown puzzle %s", name)
	}
	return p
}

func solveNet(b *testing.B, net snet.Node, puzzle *sudoku.Board, opts ...snet.Option) *snet.Stats {
	b.Helper()
	board, stats, err := sudoku.SolveWithNet(context.Background(), net, puzzle, opts...)
	if err != nil || board == nil || !board.IsSolved() {
		b.Fatalf("network solve failed: %v", err)
	}
	return stats
}

// BenchmarkE1Fig1Pipeline — Fig. 1: computeOpts .. (solveOneLevel ** {<done>}).
func BenchmarkE1Fig1Pipeline(b *testing.B) {
	for _, name := range []string{"easy", "medium", "hard"} {
		puzzle := fixed(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stats := solveNet(b, sudoku.Fig1Net(sudoku.NetConfig{Pool: pool1}), puzzle)
				if stats.Counter("star.solve_loop.replicas") > 81 {
					b.Fatal("Fig. 1 bound (81 stages) violated")
				}
			}
		})
	}
}

// BenchmarkE2Fig2FullUnfold — Fig. 2: (solveOneLevel !! <k>) ** {<done>}.
func BenchmarkE2Fig2FullUnfold(b *testing.B) {
	for _, name := range []string{"easy", "medium", "hard"} {
		puzzle := fixed(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stats := solveNet(b, sudoku.Fig2Net(sudoku.NetConfig{Pool: pool1}), puzzle)
				if stats.Max("split.level_split.width") > 9 ||
					stats.Counter("box.solveOneLevel.instances") > 729 {
					b.Fatal("Fig. 2 bounds (9-wide, 729 boxes) violated")
				}
			}
		})
	}
}

// BenchmarkE3Fig3Throttled — Fig. 3: throttle sweep over the %m filter.
func BenchmarkE3Fig3Throttled(b *testing.B) {
	puzzle := fixed(b, "hard")
	for _, m := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("throttle%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sudoku.NetConfig{Pool: pool1, Throttle: m, ExitLevel: 40}
				stats := solveNet(b, sudoku.Fig3Net(cfg), puzzle)
				if stats.Max("split.level_split.width") > int64(m) {
					b.Fatalf("throttle %d violated", m)
				}
			}
		})
	}
}

// BenchmarkE4Sequential9x9 — the §3 sequential solver ("far less than a
// second" for typical 9×9 puzzles).
func BenchmarkE4Sequential9x9(b *testing.B) {
	for _, name := range []string{"easy", "medium", "hard"} {
		puzzle := fixed(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := sudoku.SolveBoard(pool1, puzzle); !ok {
					b.Fatal("solve failed")
				}
			}
		})
	}
}

// BenchmarkE5WithLoopScaling — implicit data parallelism: the same stencil
// with-loop on 1-wide and 2-wide pools.
func BenchmarkE5WithLoopScaling(b *testing.B) {
	const side = 600
	src := sac.Genarray(pool1, []int{side, side}, 0.0,
		sac.GenHalfOpen([]int{0, 0}, []int{side, side}, func(iv []int) float64 {
			return float64((iv[0]*31+iv[1]*17)%1000) / 1000.0
		}))
	for _, workers := range []int{1, 2, 4} {
		p := sac.NewPoolWithGrain(workers, 512)
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := sac.Genarray(p, []int{side, side}, 0.0,
					sac.GenHalfOpen([]int{1, 1}, []int{side - 1, side - 1},
						func(iv []int) float64 {
							x, j := iv[0], iv[1]
							return 0.2 * (src.At(x, j) + src.At(x-1, j) +
								src.At(x+1, j) + src.At(x, j-1) + src.At(x, j+1))
						}))
				if res.Size() != side*side {
					b.Fatal("bad result")
				}
			}
		})
	}
}

// BenchmarkE6BigBoards — 16×16 boards, sequential vs the Fig. 3 network
// (medium instance; the seconds-long hard instances live in
// cmd/experiments).
func BenchmarkE6BigBoards(b *testing.B) {
	puzzle, _ := sudoku.Generate(pool1, 4, 7, 150, false)
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := sudoku.SolveBoard(pool1, puzzle); !ok {
				b.Fatal("seq failed")
			}
		}
	})
	b.Run("fig3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := sudoku.NetConfig{Pool: pool1, Throttle: 4, ExitLevel: 200}
			solveNet(b, sudoku.Fig3Net(cfg), puzzle)
		}
	})
}

// BenchmarkE7SacVM — the Core SaC interpreter on the paper's §2 examples
// (correctness is asserted by unit tests; this tracks interpreter speed).
func BenchmarkE7SacVM(b *testing.B) {
	prog := saclang.MustParse(saclang.Prelude + `
		int[*] main() {
			A = with { ([1] <= iv < [4]) : 1;
			           ([3] <= iv < [5]) : 2;
			} : genarray( [6], 0);
			res = with { ([0] <= iv < [3]) : 3; } : modarray( A);
			return( res ++ [7,8]);
		}`)
	itp := saclang.New(prog, pool1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := itp.Call("main", nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8DetVsNondet — the sort-record protocol ablation: identical
// record flood through nondeterministic vs deterministic split.
func BenchmarkE8DetVsNondet(b *testing.B) {
	const n = 500
	mkInputs := func() []*snet.Record {
		inputs := make([]*snet.Record, n)
		for i := range inputs {
			inputs[i] = snet.NewRecord().SetTag("n", i).SetTag("k", i%4)
		}
		return inputs
	}
	idFn := func(args []any, out *snet.Emitter) error { return out.Out(1, args[0].(int)) }
	for _, det := range []bool{false, true} {
		name := "nondet"
		if det {
			name = "det"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				box := snet.NewBox("w", snet.MustParseSignature("(<n>) -> (<n>)"), idFn)
				var net snet.Node
				if det {
					net = snet.SplitDet(box, "k")
				} else {
					net = snet.Split(box, "k")
				}
				out, _, err := compile(b, net).RunAll(context.Background(), mkInputs())
				if err != nil || len(out) != n {
					b.Fatalf("out=%d err=%v", len(out), err)
				}
			}
		})
	}
}

// BenchmarkE9RuntimeMicro — coordination-layer throughput: box pipeline and
// filter hops per record.
func BenchmarkE9RuntimeMicro(b *testing.B) {
	idFn := func(args []any, out *snet.Emitter) error { return out.Out(1, args[0].(int)) }
	box := func() snet.Node {
		return snet.NewBox("id", snet.MustParseSignature("(<n>) -> (<n>)"), idFn)
	}
	nets := map[string]func() snet.Node{
		"box":      func() snet.Node { return box() },
		"pipeline": func() snet.Node { return snet.Serial(box(), box(), box(), box()) },
		"filter":   func() snet.Node { return snet.MustFilter("{<n>} -> {<n>=<n>*2+1}") },
	}
	for name, mk := range nets {
		b.Run(name, func(b *testing.B) {
			const n = 500
			inputs := make([]*snet.Record, n)
			for i := range inputs {
				inputs[i] = snet.NewRecord().SetTag("n", i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, _, err := compile(b, mk()).RunAll(context.Background(), inputs)
				if err != nil || len(out) != n {
					b.Fatal("micro failed")
				}
			}
		})
	}
}

// BenchmarkE11BoxEngine — the concurrent box engine: sequential invocation
// (W=1) vs W-worker order-preserving invocation on the sudoku networks of
// Figs. 1–3 (hard 9×9 instance).  CPU-bound boxes scale with W only up to
// the core count; see E12 for the latency-bound regime.
func BenchmarkE11BoxEngine(b *testing.B) {
	puzzle := fixed(b, "hard")
	nets := []struct {
		name string
		mk   func() snet.Node
	}{
		{"fig1", func() snet.Node { return sudoku.Fig1Net(sudoku.NetConfig{Pool: pool1}) }},
		{"fig2", func() snet.Node { return sudoku.Fig2Net(sudoku.NetConfig{Pool: pool1}) }},
		{"fig3", func() snet.Node {
			return sudoku.Fig3Net(sudoku.NetConfig{Pool: pool1, Throttle: 4, ExitLevel: 40})
		}},
	}
	for _, net := range nets {
		for _, W := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/W%d", net.name, W), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					solveNet(b, net.mk(), puzzle, snet.WithBoxWorkers(W))
				}
			})
		}
	}
}

// BenchmarkE12LatencyBoundBox — a box dominated by per-invocation latency
// (simulated I/O, 200µs per record): the engine overlaps the waits, so
// throughput scales with W even on a single core, while the reorder stage
// keeps the output stream in input order.
func BenchmarkE12LatencyBoundBox(b *testing.B) {
	const n, delay = 64, 200 * time.Microsecond
	mkNet := func() snet.Node {
		return snet.NewBox("io", snet.MustParseSignature("(<n>) -> (<n>)"),
			func(args []any, out *snet.Emitter) error {
				time.Sleep(delay)
				return out.Out(1, args[0].(int))
			})
	}
	inputs := make([]*snet.Record, n)
	for i := range inputs {
		inputs[i] = snet.NewRecord().SetTag("n", i)
	}
	for _, W := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("W%d", W), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, _, err := compile(b, mkNet()).RunAll(context.Background(), inputs,
					snet.WithBoxWorkers(W))
				if err != nil || len(out) != n {
					b.Fatalf("out=%d err=%v", len(out), err)
				}
				for j, r := range out {
					if v, _ := r.Tag("n"); v != j {
						b.Fatalf("order broken at %d: %v", j, out[j])
					}
				}
			}
		})
	}
}

// BenchmarkE13DeepPipeline — the batched stream transport on a deep
// pipeline of cheap stages: at B=1 every record pays one channel
// synchronization per hop; frames amortize that B-fold on hot streams
// while the adaptive flush keeps single-record latency flat.  The subject is
// the transport, so the chain compiles WithFusion(false) — fused it is one
// segment with no stream in it (E22 prices that).
func BenchmarkE13DeepPipeline(b *testing.B) {
	const n, depth = 2000, 32
	mkNet := func() snet.Node {
		stages := make([]snet.Node, depth)
		for i := range stages {
			stages[i] = snet.Observe(fmt.Sprintf("tap%d", i), nil)
		}
		return snet.Serial(stages...)
	}
	inputs := make([]*snet.Record, n)
	for i := range inputs {
		inputs[i] = snet.NewRecord().SetTag("n", i)
	}
	for _, B := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("B%d", B), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, _, err := compile(b, mkNet(), snet.WithFusion(false)).
					RunAll(context.Background(), inputs,
						snet.WithStreamBatch(B), snet.WithBoxWorkers(1))
				if err != nil || len(out) != n {
					b.Fatalf("out=%d err=%v", len(out), err)
				}
			}
		})
	}
}

// BenchmarkE14Fig1Batch — the Fig. 1 sudoku pipeline (the case study's
// deepest star chain) across the stream batch size.
func BenchmarkE14Fig1Batch(b *testing.B) {
	puzzle := fixed(b, "hard")
	for _, B := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("B%d", B), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solveNet(b, sudoku.Fig1Net(sudoku.NetConfig{Pool: pool1}), puzzle,
					snet.WithStreamBatch(B))
			}
		})
	}
}

// BenchmarkSessionChurn — the E15 lifecycle cost per session: open, one
// record through a three-box pipeline, drain, release.  Isolated mode pays
// a full network instantiation and teardown per iteration; shared mode pays
// a map insert plus one replica unfold/reclaim on the warm engine.
func BenchmarkSessionChurn(b *testing.B) {
	builder := func(service.Options) (snet.Node, error) {
		box := func(name string) snet.Node {
			return snet.NewBox(name, snet.MustParseSignature("(<n>) -> (<n>)"),
				func(args []any, out *snet.Emitter) error {
					return out.Out(1, args[0].(int)+1)
				})
		}
		return snet.Serial(box("c1"), box("c2"), box("c3")), nil
	}
	for _, mode := range []service.SessionMode{service.Isolated, service.Shared} {
		b.Run(mode.String(), func(b *testing.B) {
			svc := service.New()
			svc.Register("pipe", "", service.Options{
				BufferSize: 8, SessionMode: mode, MaxSessions: -1,
			}, builder, nil)
			defer svc.Shutdown()
			ctx := context.Background()
			if mode == service.Shared { // warm the engine outside the loop
				warm, err := svc.Open("pipe")
				if err != nil {
					b.Fatal(err)
				}
				warm.Release()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess, err := svc.Open("pipe")
				if err != nil {
					b.Fatal(err)
				}
				if err := sess.Send(ctx, snet.NewRecord().SetTag("n", i)); err != nil {
					b.Fatal(err)
				}
				sess.CloseInput()
				recs, done, err := sess.Drain(ctx, 0)
				if err != nil || !done || len(recs) != 1 {
					b.Fatalf("churn %d: %d records done=%v err=%v", i, len(recs), done, err)
				}
				sess.Release()
			}
		})
	}
}

// BenchmarkE10InterpretedBoxes — Fig. 1 with the paper's interpreted SaC
// boxes (the hybrid two-layer configuration) vs native boxes.
func BenchmarkE10InterpretedBoxes(b *testing.B) {
	puzzle := fixed(b, "easy")
	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solveNet(b, sudoku.Fig1Net(sudoku.NetConfig{Pool: pool1}), puzzle)
		}
	})
	b.Run("interpreted", func(b *testing.B) {
		boxes := sudoku.NewSacBoxes(pool1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			board, _, err := boxes.SolveHybrid(context.Background(), puzzle)
			if err != nil || board == nil {
				b.Fatalf("hybrid failed: %v", err)
			}
		}
	})
}

// BenchmarkE17Wavefront — the wavefront workload (internal/workloads): an
// n×n dependency grid of synchrocell joins unfolded from one {start}
// record, verified against the sequential DP reference each iteration.
func BenchmarkE17Wavefront(b *testing.B) {
	for _, n := range []int{8, 16, 64} { // 64 is the benchmark's wavefront_join size
		seed := int64(61)
		plan := snet.MustCompile(workloads.WavefrontNet(n, seed))
		want := workloads.WavefrontReference(n, seed)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, _, err := plan.RunAll(context.Background(),
					[]*snet.Record{workloads.WavefrontSeed()})
				if err != nil || len(out) != 1 || out[0].MustField("result").(int) != want {
					b.Fatalf("wavefront n=%d: %v", n, err)
				}
			}
		})
	}
}

// BenchmarkE18DivConq — the divide-and-conquer workload: mergesort as star
// unfolding over per-pair split replicas, verified against sort.Ints.
func BenchmarkE18DivConq(b *testing.B) {
	const jobs, n, leaf = 2, 512, 32
	seed := int64(23)
	plan := snet.MustCompile(workloads.DivConqNet(n, leaf))
	in := workloads.DivConqJobs(jobs, n, seed)
	b.Run(fmt.Sprintf("jobs=%d_n=%d", jobs, n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, _, err := plan.RunAll(context.Background(), in,
				snet.WithMaxSplitWidth(workloads.DivConqSplitWidth(jobs, n, leaf)))
			if err != nil || len(out) != jobs {
				b.Fatalf("divconq: %d records err=%v", len(out), err)
			}
		}
	})
}

// BenchmarkE19WebPipe — the request/response pipeline driven in-process
// (the HTTP harness lives in cmd/experiments -only E19).
func BenchmarkE19WebPipe(b *testing.B) {
	plan := snet.MustCompile(workloads.WebPipeNet())
	const reqs = 64
	in := make([]*snet.Record, reqs)
	for i := range in {
		in[i] = workloads.WebPipeRequest(i)
	}
	b.Run(fmt.Sprintf("requests=%d", reqs), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, _, err := plan.RunAll(context.Background(), in)
			if err != nil || len(out) != reqs {
				b.Fatalf("webpipe: %d records err=%v", len(out), err)
			}
		}
	})
}

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

// drainHandle shuts a persistent benchmark handle down gracefully: close the
// input, drain the in-flight records, wait.  Cancel would strand pooled
// records in stream buffers and skew the arena ledger for later tests in the
// same binary.
func drainHandle(h *snet.Handle) {
	h.Close()
	for range h.Out() {
	}
	h.Wait()
}

// benchRecordPlanePipeline streams records through the E13 deep tap pipeline
// over one persistent handle, ping-ponging a fixed in-flight population: the
// record received from the output is sent straight back in.  Taps forward
// records untouched and frames recycle through the slab arena, so the
// steady state is allocation-free — the record-plane target the slot-array
// refactor set.  This is the stream-plane case: WithFusion(false) keeps the
// 32 stream hops benchRecordPlaneFused collapses.
func benchRecordPlanePipeline(b *testing.B) {
	const depth, inflight = 32, 64
	stages := make([]snet.Node, depth)
	for i := range stages {
		stages[i] = snet.Observe(fmt.Sprintf("tap%d", i), nil)
	}
	h := compile(b, snet.Serial(stages...), snet.WithFusion(false)).
		Start(context.Background(), snet.WithBoxWorkers(1), snet.WithStreamBatch(8))
	defer drainHandle(h)
	for i := 0; i < inflight; i++ {
		if err := h.Send(snet.NewRecord().SetTag("n", i)); err != nil {
			b.Fatal(err)
		}
	}
	// Warm laps prime every stream's slab and pool population; the forced
	// collection in between takes the sync.Pool clear a GC would otherwise
	// inflict mid-measurement (the measured loop is allocation-free, so no
	// further collection triggers).
	warmLap := func() {
		for i := 0; i < inflight; i++ {
			r, ok := <-h.Out()
			if !ok {
				b.Fatal("output closed during warmup")
			}
			if err := h.Send(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	warmLap()
	runtime.GC()
	warmLap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, ok := <-h.Out()
		if !ok {
			b.Fatal("output closed")
		}
		if err := h.Send(r); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// benchRecordPlaneFused is the pipeline shape through a compiled plan at
// B=1: the fusion pass collapses all 32 taps into one single-goroutine
// segment, so each op's record moves through the executor's swap buffers
// instead of 32 stream hops — and must stay just as allocation-free as the
// stream plane it bypasses.
func benchRecordPlaneFused(b *testing.B) {
	const depth, inflight = 32, 64
	stages := make([]snet.Node, depth)
	for i := range stages {
		stages[i] = snet.Observe(fmt.Sprintf("tap%d", i), nil)
	}
	h := compile(b, snet.Serial(stages...)).Start(context.Background(),
		snet.WithBoxWorkers(1), snet.WithStreamBatch(1))
	defer drainHandle(h)
	for i := 0; i < inflight; i++ {
		if err := h.Send(snet.NewRecord().SetTag("n", i)); err != nil {
			b.Fatal(err)
		}
	}
	warmLap := func() {
		for i := 0; i < inflight; i++ {
			r, ok := <-h.Out()
			if !ok {
				b.Fatal("output closed during warmup")
			}
			if err := h.Send(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	warmLap()
	runtime.GC()
	warmLap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, ok := <-h.Out()
		if !ok {
			b.Fatal("output closed")
		}
		if err := h.Send(r); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// benchRecordPlaneRouting drives the E16 routing shape — a wide Parallel of
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

// BenchmarkRecordPlane — E21: the zero-allocation record plane in steady
// state.  CI runs the companion TestRecordPlaneZeroAlloc, which asserts
// 0 allocs/op on both shapes.
func BenchmarkRecordPlane(b *testing.B) {
	b.Run("pipeline", benchRecordPlanePipeline)
	b.Run("fused", benchRecordPlaneFused)
	b.Run("routing", benchRecordPlaneRouting)
}

// TestRecordPlaneZeroAlloc is the enforced form of the benchmark: the
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
		{"pipeline", benchRecordPlanePipeline},
		{"fused", benchRecordPlaneFused},
		{"routing", benchRecordPlaneRouting},
	} {
		res := testing.Benchmark(c.fn)
		if a := res.AllocsPerOp(); a != 0 {
			t.Errorf("%s: %d allocs/op (%d B/op), want 0", c.name, a, res.AllocedBytesPerOp())
		}
	}
}
