package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sudoku"
	"repro/snet"
	"repro/snet/service"
)

// Reps is the measurement repetition count used by the experiment tables.
var Reps = 5

// Grain overrides the with-loop pools' minimum chunk size for every
// experiment (0 keeps each experiment's default), so grain sweeps are
// runnable from cmd/experiments without recompiling.
var Grain = 0

// StreamBatch overrides the runs' stream batch size B for every experiment
// (0 keeps the runtime default).  E13/E14 sweep B explicitly regardless.
var StreamBatch = 0

// newPool builds a with-loop pool honouring the Grain override (Grain < 1
// selects the sched default).
func newPool(width int) *sched.Pool {
	return sched.NewWithGrain(width, Grain)
}

// runOpts returns the run options implied by the package knobs.
func runOpts(extra ...core.Option) []core.Option {
	var opts []core.Option
	if StreamBatch > 0 {
		opts = append(opts, core.WithStreamBatch(StreamBatch))
	}
	return append(opts, extra...)
}

// Workloads returns the named 9×9 puzzle set used across experiments.
func Workloads() []struct {
	Name   string
	Puzzle *sudoku.Board
} {
	out := []struct {
		Name   string
		Puzzle *sudoku.Board
	}{}
	for _, name := range []string{"easy", "medium", "hard"} {
		out = append(out, struct {
			Name   string
			Puzzle *sudoku.Board
		}{name, sudoku.Fixed9x9()[name]})
	}
	return out
}

func solveNet(net core.Node, puzzle *sudoku.Board, opts ...core.Option) (*core.Stats, error) {
	b, stats, err := sudoku.SolveWithNet(context.Background(), net, puzzle, runOpts(opts...)...)
	if err != nil {
		return stats, err
	}
	if b == nil || !b.IsSolved() {
		return stats, fmt.Errorf("network failed to solve the puzzle")
	}
	return stats, nil
}

// E1Fig1 reproduces Figure 1: the pipeline solver, its correctness, its
// unfolding bound and its runtime against the sequential solver.
func E1Fig1() *Table {
	t := &Table{
		ID:    "E1",
		Title: "Fig. 1 — computeOpts .. (solveOneLevel ** {<done>})",
		Claim: "the serial replicator unfolds on demand and \"cannot lead to pipelines longer than 81 replicas\" for 9×9 (§5)",
		Header: []string{"puzzle", "empty cells", "seq median", "fig1 median",
			"stages (replicas)", "bound 81 held"},
	}
	pool := newPool(1)
	for _, w := range Workloads() {
		seq := Measure(Reps, func() {
			if _, ok := sudoku.SolveBoard(pool, w.Puzzle); !ok {
				panic("seq failed")
			}
		})
		var lastStats *core.Stats
		fig1 := Measure(Reps, func() {
			stats, err := solveNet(sudoku.Fig1Net(sudoku.NetConfig{Pool: pool}), w.Puzzle)
			if err != nil {
				panic(err)
			}
			lastStats = stats
		})
		replicas := lastStats.Counter("star.solve_loop.replicas")
		t.AddRow(w.Name, 81-w.Puzzle.CountFilled(), seq.Median(), fig1.Median(),
			replicas, replicas <= 81)
	}
	return t
}

// E2Fig2 reproduces Figure 2: full unfolding with the parallel replicator.
func E2Fig2() *Table {
	t := &Table{
		ID:    "E2",
		Title: "Fig. 2 — (solveOneLevel !! <k>) ** {<done>} (full unfolding)",
		Claim: "no more than 9 replicas per stage; \"a maximum of 9×81 = 729 solveOneLevel boxes\" (§5)",
		Header: []string{"puzzle", "fig2 median", "stages", "max width",
			"solveOneLevel instances", "bounds (9 / 729) held"},
	}
	pool := newPool(1)
	for _, w := range Workloads() {
		var stats *core.Stats
		tm := Measure(Reps, func() {
			s, err := solveNet(sudoku.Fig2Net(sudoku.NetConfig{Pool: pool}), w.Puzzle)
			if err != nil {
				panic(err)
			}
			stats = s
		})
		width := stats.Max("split.level_split.width")
		boxes := stats.Counter("box.solveOneLevel.instances")
		t.AddRow(w.Name, tm.Median(), stats.Counter("star.solve_loop.replicas"),
			width, boxes, width <= 9 && boxes <= 729)
	}
	return t
}

// E3Fig3 reproduces Figure 3: throttled unfolding, sweeping the modulo
// throttle and the exit level.
func E3Fig3() *Table {
	t := &Table{
		ID:    "E3",
		Title: "Fig. 3 — throttled unfolding ({<k>}->{<k>=<k>%m}, exit <level> > L, terminal solve)",
		Claim: "the %4 filter \"implicitly limits the parallel unfolding to a maximum of 4 instances\"; non-completed sudokus exit at level > 40 and are finished by the solve box (§5)",
		Header: []string{"puzzle", "throttle m", "exit L", "median", "stages",
			"max width", "width ≤ m"},
	}
	pool := newPool(1)
	for _, w := range Workloads()[1:] { // medium, hard
		for _, m := range []int{1, 2, 4, 8} {
			var stats *core.Stats
			tm := Measure(Reps, func() {
				s, err := solveNet(sudoku.Fig3Net(sudoku.NetConfig{Pool: pool, Throttle: m, ExitLevel: 40}), w.Puzzle)
				if err != nil {
					panic(err)
				}
				stats = s
			})
			width := stats.Max("split.level_split.width")
			t.AddRow(w.Name, m, 40, tm.Median(),
				stats.Counter("star.solve_loop.replicas"), width, width <= int64(m))
		}
	}
	for _, L := range []int{20, 40, 60} {
		var stats *core.Stats
		tm := Measure(Reps, func() {
			s, err := solveNet(sudoku.Fig3Net(sudoku.NetConfig{Pool: pool, Throttle: 4, ExitLevel: L}), sudoku.Hard())
			if err != nil {
				panic(err)
			}
			stats = s
		})
		width := stats.Max("split.level_split.width")
		t.AddRow("hard", 4, L, tm.Median(),
			stats.Counter("star.solve_loop.replicas"), width, width <= 4)
	}
	return t
}

// E4Sequential reproduces the §3 footnote: typical 9×9 puzzles solve "in
// far less than a second" with the findMinTrues heuristic.
func E4Sequential() *Table {
	t := &Table{
		ID:     "E4",
		Title:  "Sequential §3 solver on 9×9",
		Claim:  "\"this algorithm leads to code that typically solves 9 by 9 sudokus in far less than a second\" (§3 footnote)",
		Header: []string{"puzzle", "median", "min", "sub-second"},
	}
	pool := newPool(1)
	for _, w := range Workloads() {
		tm := Measure(Reps, func() {
			if _, ok := sudoku.SolveBoard(pool, w.Puzzle); !ok {
				panic("seq failed")
			}
		})
		t.AddRow(w.Name, tm.Median(), tm.Min(), tm.Median() < time.Second)
	}
	return t
}

// E5WithLoop reproduces the implicit data-parallelism claim: with-loop
// runtime scales with the worker pool, with identical results.
func E5WithLoop(maxWorkers int) *Table {
	t := &Table{
		ID:    "E5",
		Title: "Data-parallel with-loops (genarray stencil + fold reduction)",
		Claim: "data parallelism in SaC \"comes for free, i.e., it just requires multi-threaded code generation to be enabled\" (§3)",
		Header: []string{"kernel", "workers", "median", "speedup vs 1",
			"result identical"},
	}
	const side = 1200
	src := array.Genarray(sched.New(1), []int{side, side}, 0.0,
		array.GenHalfOpen([]int{0, 0}, []int{side, side}, func(iv []int) float64 {
			return float64((iv[0]*31+iv[1]*17)%1000) / 1000.0
		}))
	stencil := func(p *sched.Pool) *array.Array[float64] {
		return array.Genarray(p, []int{side, side}, 0.0,
			array.GenHalfOpen([]int{1, 1}, []int{side - 1, side - 1}, func(iv []int) float64 {
				i, j := iv[0], iv[1]
				return 0.2 * (src.At(i, j) + src.At(i-1, j) + src.At(i+1, j) +
					src.At(i, j-1) + src.At(i, j+1))
			}))
	}
	foldK := func(p *sched.Pool) float64 {
		return array.Fold(p, 0.0, func(a, b float64) float64 { return a + b },
			array.GenHalfOpen([]int{0, 0}, []int{side, side}, func(iv []int) float64 {
				v := src.At(iv[0], iv[1])
				return v * v
			}))
	}
	base := map[string]time.Duration{}
	ref := stencil(sched.New(1))
	refFold := foldK(sched.New(1))
	for _, kernel := range []string{"stencil", "fold"} {
		for workers := 1; workers <= maxWorkers; workers *= 2 {
			p := sched.NewWithGrain(workers, 512)
			var same bool
			tm := Measure(Reps, func() {
				switch kernel {
				case "stencil":
					same = array.Equal(stencil(p), ref)
				case "fold":
					d := foldK(p) - refFold
					same = d < 1e-6 && d > -1e-6
				}
			})
			if workers == 1 {
				base[kernel] = tm.Median()
			}
			t.AddRow(kernel, workers, tm.Median(), Speedup(base[kernel], tm.Median()), same)
		}
	}
	t.Notes = append(t.Notes,
		"Speedups are bounded by the host's core count; the shape to check is monotone scaling with identical results.")
	return t
}

// E6BigBoards reproduces the §3 footnote's motivation: "as sudokus can be
// played on any board of size n²×n², parallelisation becomes essential for
// bigger puzzles" — coordination-level concurrency against the sequential
// solver on 16×16 boards.
//
// The instances are seed-pinned 16×16 boards spanning easy (the sequential
// depth-first search barely backtracks) to hard (seconds of backtracking).
// The expected shape: the networks lose on easy instances (coordination
// overhead, speculative work wasted) and win on hard ones, where the
// throttled Fig. 3 network's bounded breadth-first exploration beats DFS.
func E6BigBoards() *Table {
	t := &Table{
		ID:    "E6",
		Title: "16×16 boards — sequential vs coordination-level concurrency",
		Claim: "\"as sudokus can be played on any board of size n²×n² parallelisation becomes essential for bigger puzzles\" (§3 footnote)",
		Header: []string{"instance (holes/seed)", "seq", "fig2", "fig3",
			"fig2 speedup", "fig3 speedup"},
	}
	pool := newPool(1)
	reps := Reps
	if reps > 2 {
		reps = 2 // hard instances run for seconds
	}
	for _, c := range []struct {
		name  string
		holes int
		seed  int64
	}{
		{"easy   (150/7)", 150, 7},
		{"medium (130/5)", 130, 5},
		{"hard   (150/6)", 150, 6},
		{"hard   (150/3)", 150, 3},
	} {
		puzzle, _ := sudoku.Generate(pool, 4, c.seed, c.holes, false)
		seq := Measure(reps, func() {
			if _, ok := sudoku.SolveBoard(pool, puzzle); !ok {
				panic("seq failed")
			}
		})
		fig2 := Measure(reps, func() {
			if _, err := solveNet(sudoku.Fig2Net(sudoku.NetConfig{Pool: pool}), puzzle); err != nil {
				panic(err)
			}
		})
		fig3 := Measure(reps, func() {
			cfg := sudoku.NetConfig{Pool: pool, Throttle: 4, ExitLevel: 200}
			if _, err := solveNet(sudoku.Fig3Net(cfg), puzzle); err != nil {
				panic(err)
			}
		})
		t.AddRow(c.name, seq.Median(), fig2.Median(), fig3.Median(),
			Speedup(seq.Median(), fig2.Median()), Speedup(seq.Median(), fig3.Median()))
	}
	t.Notes = append(t.Notes,
		"First-solution search: the networks explore sibling alternatives concurrently (speculative breadth-first search). On easy instances sequential DFS gets lucky and the coordination overhead dominates; on hard instances the throttled Fig. 3 network wins — the crossover the paper's footnote motivates.")
	return t
}

// E8DetVsNondet measures the cost of the deterministic variants' sort-record
// protocol — the ablation for §4's combinator design.
func E8DetVsNondet() *Table {
	t := &Table{
		ID:     "E8",
		Title:  "Deterministic (|, *, !) vs nondeterministic (||, **, !!) merge",
		Claim:  "deterministic variants preserve input order at the price of a sort-record protocol (§4)",
		Header: []string{"combinator", "records", "nondet median", "det median", "det/nondet"},
	}
	const n = 2000
	inputs := make([]*core.Record, n)
	for i := range inputs {
		inputs[i] = core.NewRecord().SetTag("n", i).SetTag("k", i%4).SetField("s", i%2 == 0)
	}
	idFn := func(args []any, out *core.Emitter) error { return out.Out(1, args[0].(int)) }
	mkPar := func(det bool) core.Node {
		a := core.NewBox("a", core.MustParseSignature("(s,<n>) -> (<n>)"),
			func(args []any, out *core.Emitter) error { return out.Out(1, args[1].(int)) })
		b := core.NewBox("b", core.MustParseSignature("(<n>) -> (<n>)"), idFn)
		if det {
			return core.ParallelDet(a, b)
		}
		return core.Parallel(a, b)
	}
	mkSplit := func(det bool) core.Node {
		b := core.NewBox("w", core.MustParseSignature("(<n>) -> (<n>)"), idFn)
		if det {
			return core.SplitDet(b, "k")
		}
		return core.Split(b, "k")
	}
	decFn := func(args []any, out *core.Emitter) error {
		v := args[0].(int) % 3
		if v <= 0 {
			return out.Out(2, 0, 1)
		}
		return out.Out(1, v-1)
	}
	mkStar := func(det bool) core.Node {
		b := core.NewBox("d", core.MustParseSignature("(<n>) -> (<n>) | (<n>,<done>)"), decFn)
		if det {
			return core.StarDet(b, core.MustParsePattern("{<done>}"))
		}
		return core.Star(b, core.MustParsePattern("{<done>}"))
	}
	cases := []struct {
		name string
		mk   func(bool) core.Node
	}{{"parallel", mkPar}, {"split", mkSplit}, {"star", mkStar}}
	for _, c := range cases {
		runIt := func(det bool) time.Duration {
			return Measure(3, func() {
				out, _, err := core.MustCompile(c.mk(det)).RunAll(context.Background(), inputs)
				if err != nil || len(out) != n {
					panic(fmt.Sprintf("%s det=%v: out=%d err=%v", c.name, det, len(out), err))
				}
			}).Median()
		}
		nd, d := runIt(false), runIt(true)
		t.AddRow(c.name, n, nd, d, Speedup(d, nd))
	}
	return t
}

// E9RuntimeMicro measures raw coordination-layer throughput: box pipelines,
// filters, and flow inheritance.
func E9RuntimeMicro() *Table {
	t := &Table{
		ID:     "E9",
		Title:  "Coordination-layer microbenchmarks (records/s)",
		Claim:  "streams are cheap enough to coordinate fine-grained components (§4)",
		Header: []string{"network", "records", "median", "records/s"},
	}
	const n = 5000
	plain := make([]*core.Record, n)
	wide := make([]*core.Record, n)
	for i := range plain {
		plain[i] = core.NewRecord().SetTag("n", i)
		wide[i] = core.NewRecord().SetTag("n", i).
			SetField("a", 1).SetField("b", 2).SetField("c", 3).
			SetTag("x", 4).SetTag("y", 5)
	}
	idFn := func(args []any, out *core.Emitter) error { return out.Out(1, args[0].(int)) }
	box := func() core.Node {
		return core.NewBox("id", core.MustParseSignature("(<n>) -> (<n>)"), idFn)
	}
	cases := []struct {
		name   string
		net    core.Node
		inputs []*core.Record
	}{
		{"1 box", box(), plain},
		{"8-box pipeline", core.Serial(box(), box(), box(), box(), box(), box(), box(), box()), plain},
		{"filter (tag arithmetic)", core.MustFilter("{<n>} -> {<n>=<n>*2+1}"), plain},
		{"1 box + flow inheritance (5 extra labels)", box(), wide},
	}
	for _, c := range cases {
		plan := core.MustCompile(c.net)
		tm := Measure(3, func() {
			out, _, err := plan.RunAll(context.Background(), c.inputs)
			if err != nil || len(out) != n {
				panic("micro bench failed")
			}
		})
		persec := float64(n) / tm.Median().Seconds()
		t.AddRow(c.name, n, tm.Median(), fmt.Sprintf("%.0f", persec))
	}
	return t
}

// E10Hybrid compares interpreted-SaC boxes with native boxes in the Fig. 1
// network — the two-layer separation claim: coordination is agnostic to the
// box implementation.
func E10Hybrid() *Table {
	t := &Table{
		ID:     "E10",
		Title:  "Fig. 1 with interpreted SaC boxes vs native boxes",
		Claim:  "the coordination layer treats box internals as opaque; the same network runs unmodified over either implementation (§4, §5)",
		Header: []string{"puzzle", "native fig1", "interpreted fig1", "slowdown", "same solution"},
	}
	pool := newPool(1)
	boxes := sudoku.NewSacBoxes(pool)
	for _, w := range Workloads()[:2] { // easy, medium — interpretation is slow
		native, _, err := sudoku.SolveWithNet(context.Background(),
			sudoku.Fig1Net(sudoku.NetConfig{Pool: pool}), w.Puzzle)
		if err != nil {
			panic(err)
		}
		nt := Measure(3, func() {
			_, _, err := sudoku.SolveWithNet(context.Background(),
				sudoku.Fig1Net(sudoku.NetConfig{Pool: pool}), w.Puzzle)
			if err != nil {
				panic(err)
			}
		})
		var hybridBoard *sudoku.Board
		ht := Measure(1, func() {
			b, _, err := boxes.SolveHybrid(context.Background(), w.Puzzle)
			if err != nil {
				panic(err)
			}
			hybridBoard = b
		})
		t.AddRow(w.Name, nt.Median(), ht.Median(),
			Speedup(ht.Median(), nt.Median()), hybridBoard.Equal(native))
	}
	return t
}

// streamBatchSweep is the B axis of the transport experiments.
var streamBatchSweep = []int{1, 8, 64}

// E13DeepPipeline measures the batched stream transport on deep pipelines —
// the workload the frame refactor targets: every record used to pay one
// channel synchronization per hop, so a D-stage pipeline cost O(D) syncs
// per record; frames amortize that B-fold on hot streams.  The subject is
// the transport, so the pipelines compile with WithFusion(false): fused, the
// tap chain has no stream left to measure (E22 prices that).
func E13DeepPipeline() *Table {
	t := &Table{
		ID:    "E13",
		Title: "Deep pipelines across stream batch size B (adaptive frame transport)",
		Claim: "per-message stream overhead dominates fine-grained S-Net workloads (Zaichenkov et al., arXiv:1305.7167); batching synchronization is the transport-level remedy (cf. S+Net's extra-functional knobs, arXiv:1306.2743)",
		Header: []string{"pipeline", "records", "B", "median", "records/s",
			"frames/record", "speedup vs B=1"},
	}
	const n, depth = 5000, 32
	idFn := func(args []any, out *core.Emitter) error { return out.Out(1, args[0].(int)) }
	mkTaps := func() core.Node {
		stages := make([]core.Node, depth)
		for i := range stages {
			stages[i] = core.Observe(fmt.Sprintf("tap%d", i), nil)
		}
		return core.Serial(stages...)
	}
	mkBoxes := func() core.Node {
		stages := make([]core.Node, depth)
		for i := range stages {
			stages[i] = core.NewBox(fmt.Sprintf("id%d", i),
				core.MustParseSignature("(<n>) -> (<n>)"), idFn)
		}
		return core.Serial(stages...)
	}
	inputs := func() []*core.Record {
		recs := make([]*core.Record, n)
		for i := range recs {
			recs[i] = core.NewRecord().SetTag("n", i)
		}
		return recs
	}
	cases := []struct {
		name string
		mk   func() core.Node
	}{
		{fmt.Sprintf("%d identity taps", depth), mkTaps},
		{fmt.Sprintf("%d-box id pipeline", depth), mkBoxes},
	}
	for _, c := range cases {
		var base time.Duration
		for _, b := range streamBatchSweep {
			var stats *core.Stats
			tm := Measure(3, func() {
				out, s, err := core.MustCompile(c.mk(), core.WithFusion(false)).
					RunAll(context.Background(), inputs(),
						core.WithStreamBatch(b), core.WithBoxWorkers(1))
				if err != nil || len(out) != n {
					panic(fmt.Sprintf("E13 %s B=%d: out=%d err=%v", c.name, b, len(out), err))
				}
				stats = s
			})
			if b == 1 {
				base = tm.Median()
			}
			framesPerRec := float64(stats.Counter("stream.frames")) /
				float64(stats.Counter("stream.records"))
			t.AddRow(c.name, n, b, tm.Median(),
				fmt.Sprintf("%.0f", float64(n)/tm.Median().Seconds()),
				fmt.Sprintf("%.2f", framesPerRec), Speedup(base, tm.Median()))
		}
	}
	t.Notes = append(t.Notes,
		"frames/record counts every stream hop in the run; at B=1 it equals the hop count per record, and larger B divides it — the synchronization amortization the refactor buys.")
	return t
}

// E14Fig1Batch runs the paper's Fig. 1 network — the deepest star chain of
// the case study (≤ 81 unfolded stages) — across the stream batch size, the
// end-to-end check that transport batching helps (and never hurts) a real
// workload with the deterministic-merge protocol in the loop.
func E14Fig1Batch() *Table {
	t := &Table{
		ID:    "E14",
		Title: "Fig. 1 sudoku pipeline across stream batch size B",
		Claim: "the star chain costs O(stages) stream synchronizations per record (§5's ≤ 81-stage unfolding); frame batching must cut that cost without disturbing results or unfolding bounds",
		Header: []string{"puzzle", "B", "median", "stages", "frames/record",
			"speedup vs B=1"},
	}
	pool := newPool(1)
	for _, w := range Workloads() {
		var base time.Duration
		for _, b := range streamBatchSweep {
			var stats *core.Stats
			tm := Measure(Reps, func() {
				s, err := solveNet(sudoku.Fig1Net(sudoku.NetConfig{Pool: pool}), w.Puzzle,
					core.WithStreamBatch(b))
				if err != nil {
					panic(err)
				}
				stats = s
			})
			if b == 1 {
				base = tm.Median()
			}
			framesPerRec := float64(stats.Counter("stream.frames")) /
				float64(stats.Counter("stream.records"))
			t.AddRow(w.Name, b, tm.Median(),
				stats.Counter("star.solve_loop.replicas"),
				fmt.Sprintf("%.2f", framesPerRec), Speedup(base, tm.Median()))
		}
	}
	return t
}

// e15Sweep is the session-count axis of the session-mux experiment.
var e15Sweep = []int{1, 64, 1024}

// e15Builder returns the E15 workload network: a three-stage box pipeline
// over <n> — cheap per record, so the measurement isolates the session
// machinery (instantiation vs map insert; per-instance streams vs the
// shared engine's mux) rather than box compute.
func e15Builder(service.Options) (snet.Node, error) {
	box := func(name string) core.Node {
		return core.NewBox(name, core.MustParseSignature("(<n>) -> (<n>)"),
			func(args []any, out *core.Emitter) error {
				return out.Out(1, args[0].(int)+1)
			})
	}
	return core.Serial(box("s1"), box("s2"), box("s3")), nil
}

// E15SessionMux measures the shared warm-engine session mode against the
// classic instance-per-session mode: open latency for S sessions, then
// aggregate throughput with all S sessions streaming concurrently, then
// full churn (every session released, shared replicas reclaimed).
func E15SessionMux() *Table {
	t := &Table{
		ID:    "E15",
		Title: "Session multiplexing — isolated instances vs one warm engine (indexed replication)",
		Claim: "indexed parallel replication with flow inheritance (A !! <tag>, §4) lets one warm instance serve all sessions — the deployed-runtime direction of the S-Net evaluations (arXiv:1305.7167, arXiv:1306.2743); session open becomes a map insert instead of a graph instantiation",
		Header: []string{"mode", "S", "open total", "open/session", "records",
			"stream+drain", "records/s", "open speedup vs isolated", "replicas after churn"},
	}
	const perSession = 20
	for _, S := range e15Sweep {
		var isoOpen time.Duration
		for _, mode := range []service.SessionMode{service.Isolated, service.Shared} {
			svc := service.New()
			svc.Register("pipe", "", service.Options{
				BufferSize: 8, SessionMode: mode, MaxSessions: -1,
			}, e15Builder, nil)
			if mode == service.Shared {
				// Warm the engine: the one instantiation all opens amortize.
				warm, err := svc.Open("pipe")
				if err != nil {
					panic(err)
				}
				warm.Release()
			}
			sessions := make([]*service.Session, S)
			t0 := time.Now()
			for i := range sessions {
				s, err := svc.Open("pipe")
				if err != nil {
					panic(err)
				}
				sessions[i] = s
			}
			openTotal := time.Since(t0)

			t1 := time.Now()
			var wg sync.WaitGroup
			errs := make(chan error, S)
			for _, sess := range sessions {
				wg.Add(1)
				go func(sess *service.Session) {
					defer wg.Done()
					ctx := context.Background()
					go func() {
						for i := 0; i < perSession; i++ {
							if sess.Send(ctx, core.NewRecord().SetTag("n", i)) != nil {
								return
							}
						}
						sess.CloseInput()
					}()
					recs, done, err := sess.Drain(ctx, 0)
					if err != nil || !done || len(recs) != perSession {
						errs <- fmt.Errorf("E15: %d records done=%v err=%v", len(recs), done, err)
					}
				}(sess)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				panic(err)
			}
			flow := time.Since(t1)
			for _, sess := range sessions {
				sess.Release()
			}
			replicas := int64(0)
			if mode == service.Shared {
				// The close protocol reclaims replicas asynchronously; wait
				// for the gauge, then record it (must be 0).
				deadline := time.Now().Add(10 * time.Second)
				gauge := func() int64 {
					return svc.Stats()["run.pipe.split.session_mux.replicas"]
				}
				for gauge() != 0 && time.Now().Before(deadline) {
					time.Sleep(2 * time.Millisecond)
				}
				replicas = gauge()
			}
			total := S * perSession
			speedup := "—"
			if mode == service.Isolated {
				isoOpen = openTotal
			} else {
				speedup = fmt.Sprintf("%.1fx", Speedup(isoOpen, openTotal))
			}
			t.AddRow(mode.String(), S, openTotal, openTotal/time.Duration(S),
				total, flow, fmt.Sprintf("%.0f", float64(total)/flow.Seconds()),
				speedup, replicas)
			svc.Shutdown()
		}
	}
	t.Notes = append(t.Notes,
		"Shared mode wraps the network in SessionSplit(root, \"__snet_session\") once; Open allocates an id and two bounded queues, and the per-session replica unfolds on the first record. \"replicas after churn\" is the live split.session_mux.replicas gauge after all sessions released — 0 means every replica was reclaimed through the close protocol.")
	return t
}

// All runs every experiment table (E7 is covered by unit tests — the §2
// semantics examples — and therefore has no timing table).
func All(maxWorkers int) []*Table {
	return []*Table{
		E1Fig1(), E2Fig2(), E3Fig3(), E4Sequential(),
		E5WithLoop(maxWorkers), E6BigBoards(),
		E8DetVsNondet(), E9RuntimeMicro(), E10Hybrid(),
		E13DeepPipeline(), E14Fig1Batch(), E15SessionMux(),
	}
}
