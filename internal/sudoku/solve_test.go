package sudoku

import (
	"context"
	"testing"
	"testing/quick"
)

func TestSolveEasyMatchesKnownSolution(t *testing.T) {
	got, solved := SolveBoard(sp, Easy())
	if !solved {
		t.Fatal("Easy not solved")
	}
	if !got.Equal(EasySolution()) {
		t.Fatalf("wrong solution:\n%s", got)
	}
}

func TestSolveAllFixedPuzzles(t *testing.T) {
	for name, puzzle := range Fixed9x9() {
		got, solved := SolveBoard(sp, puzzle)
		if !solved {
			t.Fatalf("%s not solved", name)
		}
		if !got.IsSolved() {
			t.Fatalf("%s: invalid solution", name)
		}
		if !got.Extends(puzzle) {
			t.Fatalf("%s: solution does not extend the puzzle", name)
		}
	}
}

func TestFixedPuzzlesAreUnique(t *testing.T) {
	for name, puzzle := range Fixed9x9() {
		if c := CountSolutions(sp, puzzle, 2); c != 1 {
			t.Fatalf("%s has %d solutions", name, c)
		}
	}
}

func TestSolveUnsolvable(t *testing.T) {
	b := unsolvableBoard()
	opts, ok := ComputeOpts(sp, b)
	if !ok {
		t.Fatal("board should be consistent (no direct violation)")
	}
	if !IsStuck(b, opts) {
		t.Fatal("cell (0,0) must be stuck")
	}
	_, _, solved := Solve(sp, b, opts)
	if solved {
		t.Fatal("unsolvable board reported solved")
	}
}

func TestCountSolutionsMultiple(t *testing.T) {
	// An empty 4×4 board has many solutions; limit must cap the count.
	if c := CountSolutions(sp, NewBoard(2), 5); c != 5 {
		t.Fatalf("count = %d, want limit 5", c)
	}
}

func TestSolve4x4(t *testing.T) {
	got, solved := SolveBoard(sp, NewBoard(2))
	if !solved || !got.IsSolved() {
		t.Fatal("empty 4×4 must solve")
	}
}

func TestSolve16x16Generated(t *testing.T) {
	puzzle, solution := Generate(sp, 4, 42, 60, false)
	got, solved := SolveBoard(sp, puzzle)
	if !solved {
		t.Fatal("16×16 puzzle not solved")
	}
	if !got.IsSolved() || !got.Extends(puzzle) {
		t.Fatal("16×16 solution invalid")
	}
	_ = solution
}

func TestGenerateSolvedValidity(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		b := GenerateSolved(n, 7)
		if !b.IsSolved() {
			t.Fatalf("n=%d: generated board invalid", n)
		}
	}
}

func TestGenerateSeedDeterminism(t *testing.T) {
	a := GenerateSolved(3, 123)
	b := GenerateSolved(3, 123)
	c := GenerateSolved(3, 124)
	if !a.Equal(b) {
		t.Fatal("same seed must reproduce")
	}
	if a.Equal(c) {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateUniquePuzzle(t *testing.T) {
	puzzle, solution := Generate(sp, 3, 99, 45, true)
	if c := CountSolutions(sp, puzzle, 2); c != 1 {
		t.Fatalf("unique generation produced %d solutions", c)
	}
	got, solved := SolveBoard(sp, puzzle)
	if !solved || !got.Equal(solution) {
		t.Fatal("puzzle does not solve back to its solution")
	}
}

func TestGenerateHoleCount(t *testing.T) {
	puzzle, _ := Generate(sp, 3, 5, 30, false)
	if got := 81 - puzzle.CountFilled(); got != 30 {
		t.Fatalf("holes = %d, want 30", got)
	}
}

// Property: solving any generated puzzle yields a valid completion of it.
func TestQuickGeneratedPuzzlesSolve(t *testing.T) {
	f := func(seed int64, holesRaw uint8) bool {
		holes := int(holesRaw % 50)
		puzzle, _ := Generate(sp, 3, seed, holes, false)
		got, solved := SolveBoard(sp, puzzle)
		return solved && got.IsSolved() && got.Extends(puzzle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveOneLevelEmitsAlternatives(t *testing.T) {
	b := Easy()
	opts, _ := ComputeOpts(sp, b)
	var outs []SolveOneLevelOutput
	err := SolveOneLevel(sp, b, opts, func(o SolveOneLevelOutput) error {
		outs = append(outs, o)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) == 0 {
		t.Fatal("no alternatives emitted")
	}
	i, j, _ := FindMinTrues(opts)
	if len(outs) != opts.Count(i, j) {
		t.Fatalf("emitted %d, want %d (options at the selected cell)", len(outs), opts.Count(i, j))
	}
	for _, o := range outs {
		if o.Done {
			t.Fatal("Easy cannot complete in one placement")
		}
		if o.Level != b.CountFilled()+1 {
			t.Fatalf("level = %d, want %d", o.Level, b.CountFilled()+1)
		}
		if o.Board.Get(i, j) != o.K {
			t.Fatal("emitted board does not carry the tried number")
		}
		if !o.Board.Valid() {
			t.Fatal("emitted board invalid")
		}
	}
}

func TestSolveOneLevelDoneOnLastCell(t *testing.T) {
	sol := EasySolution()
	b := sol.With(4, 4, 0) // one hole
	opts, _ := ComputeOpts(sp, b)
	var outs []SolveOneLevelOutput
	if err := SolveOneLevel(sp, b, opts, func(o SolveOneLevelOutput) error {
		outs = append(outs, o)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || !outs[0].Done {
		t.Fatalf("outs = %+v", outs)
	}
	if !outs[0].Board.Equal(sol) {
		t.Fatal("completion wrong")
	}
}

func TestSolveOneLevelStuckEmitsNothing(t *testing.T) {
	b := Easy()
	opts, _ := ComputeOpts(sp, b)
	o2 := opts.Clone()
	data := o2.cube.Data()
	for k := 0; k < 9; k++ {
		data[(0*9+2)*9+k] = false // kill cell (0,2)
	}
	count := 0
	if err := SolveOneLevel(sp, b, o2, func(SolveOneLevelOutput) error {
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("stuck board emitted %d records", count)
	}
}

func TestSolve25x25Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("25×25 smoke test")
	}
	// Few holes: the point is exercising the generic n²×n² path at n=5,
	// not search difficulty.
	puzzle, solution := Generate(sp, 5, 13, 20, false)
	got, solved := SolveBoard(sp, puzzle)
	if !solved || !got.IsSolved() || !got.Extends(puzzle) {
		t.Fatal("25×25 failed")
	}
	_ = solution
}

func TestNetwork25x25Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("25×25 smoke test")
	}
	puzzle, _ := Generate(sp, 5, 13, 12, false)
	got, _, err := SolveWithNet(context.Background(),
		Fig3Net(NetConfig{Throttle: 4, ExitLevel: 620}), puzzle)
	if err != nil || got == nil || !got.IsSolved() {
		t.Fatalf("25×25 network solve failed: %v", err)
	}
}
