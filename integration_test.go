// End-to-end integration tests over the public API only — what a
// downstream user of the library sees.
package repro_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/sac"
	saclang "repro/sac/lang"
	"repro/snet"
	"repro/snet/lang"
	"repro/sudoku"
)

// The full stack in one test: a textual S-Net program whose boxes are the
// sudoku solver's, built via the registry, solving a puzzle.
func TestPublicAPIDSLSudoku(t *testing.T) {
	pool := sac.NewPool(1)
	reg := lang.NewRegistry().
		RegisterNode("computeOpts", sudoku.ComputeOptsBox(pool)).
		RegisterNode("solveOneLevel", sudoku.SolveOneLevelBoxFig2(pool))
	net, err := lang.BuildText(`
		box computeOpts (board) -> (board, opts);
		box solveOneLevel (board, opts) -> (board, opts, <k>) | (board, <done>);
		net fig2 connect
		    computeOpts .. [{} -> {<k>=1}] .. ((solveOneLevel !! <k>) ** {<done>});
	`, "fig2", reg)
	if err != nil {
		t.Fatal(err)
	}
	board, stats, err := sudoku.SolveWithNet(context.Background(), net, sudoku.Easy())
	if err != nil || board == nil {
		t.Fatalf("board=%v err=%v", board, err)
	}
	if !board.Equal(sudoku.EasySolution()) {
		t.Fatal("wrong solution")
	}
	if stats.Counter("star.fig2.star.replicas") == 0 {
		t.Fatal("no unfolding stats")
	}
}

// Public array API: the paper's §2 semantics.
func TestPublicAPISacArrays(t *testing.T) {
	p := sac.NewPool(2)
	v := sac.Genarray(p, []int{6}, 0,
		sac.GenHalfOpen([]int{1}, []int{4}, func(iv []int) int { return 1 }),
		sac.GenHalfOpen([]int{3}, []int{5}, func(iv []int) int { return 2 }))
	if !sac.Equal(v, sac.Vector(0, 1, 1, 2, 2, 0)) {
		t.Fatalf("got %v", v)
	}
	m := sac.Modarray(p, v, sac.GenHalfOpen([]int{0}, []int{3}, func(iv []int) int { return 3 }))
	if !sac.Equal(m, sac.Vector(3, 3, 3, 2, 2, 0)) {
		t.Fatalf("got %v", m)
	}
	if sac.Sum(p, sac.Iota(100)) != 4950 {
		t.Fatal("Sum broken")
	}
	if got := sac.Fold(p, 0, func(a, b int) int { return a + b },
		sac.GenClosed([]int{1}, []int{10}, func(iv []int) int { return iv[0] })); got != 55 {
		t.Fatalf("fold = %d", got)
	}
}

// Public interpreter API: run the paper's embedded sudoku.sac directly.
func TestPublicAPISacInterpreter(t *testing.T) {
	itp := saclang.New(saclang.MustParse(saclang.SudokuSaC), sac.NewPool(1))
	board := sudoku.BoardToValue(sudoku.Easy())
	res, err := itp.Call("computeOpts", []saclang.Value{board}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := itp.Call("solve", []saclang.Value{res[0], res[1]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sudoku.ValueToBoard(res2[0])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(sudoku.EasySolution()) {
		t.Fatal("interpreted solve wrong")
	}
}

// Public coordination API: combinators, determinism, tracing, stats.
func TestPublicAPICoordination(t *testing.T) {
	var traced atomic.Int64 // Tracers must be safe for concurrent use
	tracer := snet.TracerFunc(func(node, dir string, rec *snet.Record) { traced.Add(1) })
	dec := snet.NewBox("dec", snet.MustParseSignature("(<n>) -> (<n>) | (<n>,<done>)"),
		func(args []any, out *snet.Emitter) error {
			n := args[0].(int)
			if n <= 0 {
				return out.Out(2, 0, 1)
			}
			return out.Out(1, n-1)
		})
	net := snet.StarDet(dec, snet.MustParsePattern("{<done>}"))
	inputs := []*snet.Record{
		snet.NewRecord().SetTag("n", 3).SetTag("seq", 0),
		snet.NewRecord().SetTag("n", 1).SetTag("seq", 1),
		snet.NewRecord().SetTag("n", 2).SetTag("seq", 2),
	}
	out, _, err := compile(t, net).RunAll(context.Background(), inputs, snet.WithTracer(tracer))
	if err != nil || len(out) != 3 {
		t.Fatalf("out=%d err=%v", len(out), err)
	}
	for i, r := range out {
		if s, _ := r.Tag("seq"); s != i {
			t.Fatalf("det order broken: %v", out)
		}
	}
	if traced.Load() == 0 {
		t.Fatal("tracer saw nothing")
	}
}

// The compile phase's findings are reachable and informative from the facade.
func TestPublicAPITypecheck(t *testing.T) {
	a := snet.NewBox("a", snet.MustParseSignature("(x) -> (y)"),
		func(args []any, out *snet.Emitter) error { return out.Out(1, args[0]) })
	b := snet.NewBox("b", snet.MustParseSignature("(zz) -> (w)"),
		func(args []any, out *snet.Emitter) error { return out.Out(1, args[0]) })
	_, err := snet.Compile(snet.Serial(a, b))
	var ce *snet.CompileError
	if !errors.As(err, &ce) || ce.Errors[0].Code != snet.ErrCodeBoxReject {
		t.Fatalf("expected a box-reject type error, got %v", err)
	}
	// Behind a synchrocell the flow is approximate, and the same defect is a
	// warning: the plan compiles.
	join := snet.Sync(snet.MustParsePattern("{x}"), snet.MustParsePattern("{y}"))
	plan, err := snet.Compile(snet.Serial(join, b))
	if err != nil {
		t.Fatalf("behind a synchrocell: %v", err)
	}
	diags := plan.Warnings()
	if len(diags) == 0 {
		t.Fatal("expected a diagnostic")
	}
	if !strings.Contains(diags[0].String(), "warning") || !strings.Contains(diags[0].String(), "box-reject") {
		t.Fatalf("diag = %v", diags[0])
	}
}

// Generated puzzles of several sizes solve through the public networks.
func TestPublicAPIGeneratedBoards(t *testing.T) {
	pool := sac.NewPool(1)
	for _, n := range []int{2, 3} {
		puzzle, solution := sudoku.Generate(pool, n, 11, n*n*2, true)
		got, _, err := sudoku.SolveWithNet(context.Background(),
			sudoku.Fig3Net(sudoku.NetConfig{Pool: pool, Throttle: 2, ExitLevel: n * n * n}), puzzle)
		if err != nil || got == nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !got.Equal(solution) {
			t.Fatalf("n=%d: wrong solution", n)
		}
	}
}
