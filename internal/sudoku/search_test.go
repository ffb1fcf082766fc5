package sudoku

import (
	"fmt"
	"testing"

	"repro/internal/sched"
)

// refSolve and refCount are §3's recursion with a fresh board and cube at
// every placement: the copying reference Solve and CountSolutions are held to.
func refSolve(p *sched.Pool, board *Board, opts *Options) (*Board, *Options, bool) {
	if IsStuck(board, opts) || board.IsCompleted() {
		return board, opts, board.IsCompleted()
	}
	i, j, ok := FindMinTrues(opts)
	if !ok {
		return board, opts, board.IsCompleted()
	}
	N := board.N()
	memBoard, memOpts := board, opts
	for k := 1; k <= N && !board.IsCompleted(); k++ {
		if memOpts.Get(i, j, k) {
			b2, o2 := AddNumber(p, memBoard, memOpts, i, j, k)
			b3, o3, solved := refSolve(p, b2, o2)
			if solved {
				return b3, o3, true
			}
			board, opts = b3, o3
		}
	}
	return board, opts, board.IsCompleted()
}

func refCount(p *sched.Pool, b *Board, limit int) int {
	opts, consistent := ComputeOpts(p, b)
	if !consistent {
		return 0
	}
	count := 0
	var rec func(board *Board, opts *Options)
	rec = func(board *Board, opts *Options) {
		if count >= limit {
			return
		}
		if IsStuck(board, opts) {
			return
		}
		if board.IsCompleted() {
			count++
			return
		}
		i, j, ok := FindMinTrues(opts)
		if !ok {
			return
		}
		N := board.N()
		for k := 1; k <= N && count < limit; k++ {
			if opts.Get(i, j, k) {
				b2, o2 := AddNumber(p, board, opts, i, j, k)
				rec(b2, o2)
			}
		}
	}
	rec(b, opts)
	return count
}

// unsolvableBoard has an empty cell that admits no number: row 0 holds 1..8
// in its other cells and the 9 sits lower in column 0, so cell (0,0) is
// empty with zero options — no rule is directly violated.
func unsolvableBoard() *Board {
	b := NewBoard(3)
	for j := 1; j <= 8; j++ {
		b = b.With(0, j, j)
	}
	return b.With(5, 0, 9)
}

// misplaced returns b with a number its solution does not hold written into
// the first open cell that admits one, so that the search below it fails
// deep (or, on a puzzle with other solutions, finds one of them).
func misplaced(b, solution *Board) *Board {
	opts, _ := ComputeOpts(sp, b)
	N := b.N()
	for at := range N * N {
		i, j := at/N, at%N
		for k := 1; k <= N && b.Get(i, j) == 0; k++ {
			if opts.Get(i, j, k) && k != solution.Get(i, j) {
				return b.With(i, j, k)
			}
		}
	}
	return b
}

// TestSearchMatchesCopyingReference: Solve and CountSolutions, which write a
// board and cube their frame alone holds in place, return what the copying
// recursion returns — board, cube and solved flag, a stuck board included,
// and counts at limits 1, 2 and 5 — and never write their arguments, on the
// sequential pool and on four workers at grain 1 (every with-loop on the
// pool).
func TestSearchMatchesCopyingReference(t *testing.T) {
	type input struct {
		name  string
		board *Board
	}
	var in []input
	for name, b := range Fixed9x9() {
		in = append(in, input{name, b})
	}
	in = append(in, input{"Easy", Easy()}, input{"Medium", Medium()}, input{"Hard", Hard()})
	seeds := int64(70) // 210 puzzles, and as many with a number misplaced
	if raceEnabled || testing.Short() {
		seeds = 20
	}
	for seed := int64(1); seed <= seeds; seed++ {
		for _, holes := range []int{44, 50, 55} {
			b, solution := Generate(sp, 3, seed, holes, false)
			in = append(in,
				input{fmt.Sprintf("seed %d, %d holes", seed, holes), b},
				input{fmt.Sprintf("seed %d, %d holes, one misplaced", seed, holes), misplaced(b, solution)})
		}
	}
	big, _ := Generate(sp, 4, 42, 60, false)
	in = append(in, input{"empty 4x4", NewBoard(2)}, input{"16x16, 60 holes", big}, input{"unsolvable", unsolvableBoard()})

	for _, p := range []*sched.Pool{sched.New(1), sched.NewWithGrain(4, 1)} {
		for _, c := range in {
			name := fmt.Sprintf("%s, pool width %d", c.name, p.Width())
			opts, consistent := ComputeOpts(p, c.board)
			if consistent {
				bc, oc := c.board.Clone(), opts.Clone()
				gb, gbo, gs := Solve(p, c.board, opts)
				if !c.board.Equal(bc) || !opts.Equal(oc) {
					t.Fatalf("%s: Solve wrote its arguments", name)
				}
				wb, wo, ws := refSolve(p, c.board, opts)
				if gs != ws || !gb.Equal(wb) || !gbo.Equal(wo) {
					t.Fatalf("%s: Solve returned solved %v and\n%s\nthe copying recursion solved %v and\n%s", name, gs, gb, ws, wb)
				}
			}
			for _, limit := range []int{1, 2, 5} {
				bc := c.board.Clone()
				got := CountSolutions(p, c.board, limit)
				if !c.board.Equal(bc) {
					t.Fatalf("%s: CountSolutions wrote its argument", name)
				}
				if want := refCount(p, c.board, limit); got != want {
					t.Fatalf("%s: CountSolutions(limit %d) = %d, the copying recursion counts %d", name, limit, got, want)
				}
			}
		}
	}
}
