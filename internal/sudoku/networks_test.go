package sudoku

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

func solveWith(t *testing.T, net core.Node, puzzle *Board, opts ...core.Option) (*Board, *core.Stats) {
	t.Helper()
	b, stats, err := SolveWithNet(context.Background(), net, puzzle, opts...)
	if err != nil {
		t.Fatalf("network error: %v", err)
	}
	if b == nil {
		t.Fatal("network found no solution")
	}
	return b, stats
}

func TestFig1SolvesFixedPuzzles(t *testing.T) {
	for name, puzzle := range Fixed9x9() {
		got, _ := solveWith(t, Fig1Net(NetConfig{}), puzzle)
		if !got.IsSolved() || !got.Extends(puzzle) {
			t.Fatalf("%s: bad solution", name)
		}
	}
}

func TestFig2SolvesFixedPuzzles(t *testing.T) {
	for name, puzzle := range Fixed9x9() {
		got, _ := solveWith(t, Fig2Net(NetConfig{}), puzzle)
		if !got.IsSolved() || !got.Extends(puzzle) {
			t.Fatalf("%s: bad solution", name)
		}
	}
}

func TestFig3SolvesFixedPuzzles(t *testing.T) {
	for name, puzzle := range Fixed9x9() {
		got, _ := solveWith(t, Fig3Net(NetConfig{}), puzzle)
		if !got.IsSolved() || !got.Extends(puzzle) {
			t.Fatalf("%s: bad solution", name)
		}
	}
}

// All three networks agree with the sequential solver on unique puzzles.
func TestNetworksMatchSequentialSolver(t *testing.T) {
	puzzle := Easy()
	want, solved := SolveBoard(sp, puzzle)
	if !solved {
		t.Fatal("sequential failed")
	}
	for name, net := range map[string]core.Node{
		"fig1": Fig1Net(NetConfig{}),
		"fig2": Fig2Net(NetConfig{}),
		"fig3": Fig3Net(NetConfig{}),
	} {
		got, _ := solveWith(t, net, puzzle)
		if !got.Equal(want) {
			t.Fatalf("%s disagrees with sequential solver", name)
		}
	}
}

// §5's bound: "this unfolding cannot lead to pipelines longer than 81
// replicas of the solveOneLevel box" — one stage per number placed.
func TestFig1UnfoldingBound(t *testing.T) {
	puzzle := Hard() // most empties: 81 - 23 givens
	_, stats := solveWith(t, Fig1Net(NetConfig{}), puzzle)
	replicas := stats.Counter("star.solve_loop.replicas")
	empty := int64(81 - puzzle.CountFilled())
	if replicas > empty+1 {
		t.Fatalf("replicas = %d exceeds empty cells + 1 = %d", replicas, empty+1)
	}
	if replicas > 81 {
		t.Fatalf("replicas = %d exceeds the paper's bound of 81", replicas)
	}
	if replicas == 0 {
		t.Fatal("no unfolding recorded")
	}
}

// §5's Fig. 2 bound: at most 9 replicas per stage (tag <k> ∈ 1..9), hence
// at most 9×81 = 729 solveOneLevel boxes.
func TestFig2UnfoldingBounds(t *testing.T) {
	_, stats := solveWith(t, Fig2Net(NetConfig{}), Hard())
	stages := stats.Counter("star.solve_loop.replicas")
	splits := stats.Counter("split.level_split.replicas")
	width := stats.Max("split.level_split.width")
	if width > 9 {
		t.Fatalf("parallel width %d exceeds 9", width)
	}
	if splits > 9*stages {
		t.Fatalf("split replicas %d exceed 9 per stage (%d stages)", splits, stages)
	}
	boxes := stats.Counter("box.solveOneLevel.instances")
	if boxes > 729 {
		t.Fatalf("box instances %d exceed the paper's 729 bound", boxes)
	}
	if boxes == 0 {
		t.Fatal("no boxes instantiated")
	}
}

// Fig. 3's filter {<k>} -> {<k>=<k>%4} caps the parallel unfolding at 4.
func TestFig3ThrottleBound(t *testing.T) {
	for _, m := range []int{1, 2, 4} {
		_, stats := solveWith(t, Fig3Net(NetConfig{Throttle: m}), Medium())
		if width := stats.Max("split.level_split.width"); width > int64(m) {
			t.Fatalf("throttle %d: width = %d", m, width)
		}
	}
}

// Fig. 3's guarded exit: with exit level L, the serial replicator unfolds at
// most ~L - givens stages before records leave for the solve box.
func TestFig3ExitLevelBoundsChain(t *testing.T) {
	puzzle := Medium()
	givens := int64(puzzle.CountFilled())
	for _, L := range []int{30, 40} {
		_, stats := solveWith(t, Fig3Net(NetConfig{ExitLevel: L}), puzzle)
		stages := stats.Counter("star.solve_loop.replicas")
		maxStages := int64(L) - givens + 1
		if maxStages < 1 {
			maxStages = 1 // records exit right after the first stage
		}
		if stages > maxStages {
			t.Fatalf("L=%d: %d stages, want <= %d", L, stages, maxStages)
		}
	}
}

// Deterministic variants also solve correctly (ablation path).
func TestDetVariantsSolve(t *testing.T) {
	puzzle := Easy()
	for name, net := range map[string]core.Node{
		"fig1det": Fig1Net(NetConfig{Det: true}),
		"fig2det": Fig2Net(NetConfig{Det: true}),
	} {
		got, _ := solveWith(t, net, puzzle)
		if !got.IsSolved() {
			t.Fatalf("%s failed", name)
		}
	}
}

// 4×4 boards exercise the generic n²×n² path through all networks.
func TestNetworks4x4(t *testing.T) {
	puzzle, _ := Generate(sp, 2, 3, 8, true)
	want, _ := SolveBoard(sp, puzzle)
	for name, net := range map[string]core.Node{
		"fig1": Fig1Net(NetConfig{}),
		"fig2": Fig2Net(NetConfig{}),
		"fig3": Fig3Net(NetConfig{Throttle: 2, ExitLevel: 10}),
	} {
		got, _ := solveWith(t, net, puzzle)
		if !got.Equal(want) {
			t.Fatalf("%s: wrong solution on 4×4", name)
		}
	}
}

// Inconsistent input: computeOpts errors, nothing comes out, solver reports
// no solution rather than hanging.
func TestNetworkInconsistentInput(t *testing.T) {
	bad := Easy().With(0, 8, 5) // duplicate 5 in row 0
	var errs []string
	b, _, err := SolveWithNet(context.Background(), Fig1Net(NetConfig{}), bad,
		core.WithErrorHandler(func(e error) { errs = append(errs, e.Error()) }))
	if err != nil {
		t.Fatal(err)
	}
	if b != nil {
		t.Fatal("inconsistent puzzle must not produce a solution")
	}
	if len(errs) == 0 || !strings.Contains(errs[0], "inconsistent") {
		t.Fatalf("errors = %v", errs)
	}
}

// The figure networks compile: their type signatures are inferable and the
// compile phase has no definite finding against them.
func TestNetworksTypecheck(t *testing.T) {
	for name, net := range map[string]core.Node{
		"fig1": Fig1Net(NetConfig{}),
		"fig2": Fig2Net(NetConfig{}),
		"fig3": Fig3Net(NetConfig{}),
	} {
		plan, err := core.Compile(net)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(plan.In()) == 0 || len(plan.Out()) == 0 {
			t.Fatalf("%s: empty signature", name)
		}
		for _, d := range plan.Warnings() {
			if !d.Warning {
				t.Fatalf("%s: type error: %v", name, d)
			}
		}
	}
	// Fig. 1's inferred input must accept a plain {board} record.
	board, accepts := core.NewVariant(core.Field("board")), false
	for _, v := range core.MustCompile(Fig1Net(NetConfig{})).In() {
		accepts = accepts || v.SubsetOf(board)
	}
	if !accepts {
		t.Fatal("fig1 input type rejects {board}")
	}
}

// Unsolvable puzzles drain the network without a result.
func TestNetworkUnsolvableDrains(t *testing.T) {
	b := NewBoard(3)
	for j := 1; j <= 8; j++ {
		b = b.With(0, j, j)
	}
	b = b.With(5, 0, 9) // cell (0,0) stuck
	got, _, err := SolveWithNet(context.Background(), Fig1Net(NetConfig{}), b)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("unsolvable puzzle produced a solution")
	}
}

// BenchmarkBigBoards solves a 16×16 board with the sequential solver and
// with the Fig. 3 network: "parallelisation becomes essential for bigger
// puzzles" (§3 footnote).
func BenchmarkBigBoards(b *testing.B) {
	puzzle, _ := Generate(sp, 4, 7, 150, false)
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := SolveBoard(sp, puzzle); !ok {
				b.Fatal("seq failed")
			}
		}
	})
	b.Run("fig3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net := Fig3Net(NetConfig{Pool: sp, Throttle: 4, ExitLevel: 200})
			board, _, err := SolveWithNet(context.Background(), net, puzzle)
			if err != nil || board == nil || !board.IsSolved() {
				b.Fatalf("network solve failed: %v", err)
			}
		}
	})
}

// TestFig3WideMatchesSequentialSolver: with four box workers and every
// with-loop on four pool workers, the search's in-place writes meet
// concurrent boxes and pool goroutines, and Fig. 3 still finds what the
// sequential solver finds.
func TestFig3WideMatchesSequentialSolver(t *testing.T) {
	p := sched.NewWithGrain(4, 1)
	puzzles := []*Board{Easy(), Medium(), Hard()}
	for seed := int64(1); seed <= 4; seed++ {
		b, _ := Generate(sp, 3, seed, 50, true)
		puzzles = append(puzzles, b)
	}
	for i, puzzle := range puzzles {
		want, _ := SolveBoard(sp, puzzle)
		got, _ := solveWith(t, Fig3Net(NetConfig{Pool: p}), puzzle, core.WithBoxWorkers(4))
		if !got.Equal(want) {
			t.Fatalf("puzzle %d: Fig. 3 at W=4 on a four-wide pool disagrees with the sequential solver", i)
		}
	}
}
