package sudoku

import "repro/internal/sched"

// Solve is the paper's §3 sequential solver with the findMinTrues heuristic:
// depth-first search that places one number per level, backtracking through
// the option cube.  It returns the first solution found (solved == true) or
// the board where the search got stuck, and writes neither argument.  No
// filled cell of board may keep an option in opts, as in every pair
// ComputeOpts and AddNumber make: the search asks the empty cells only.
func Solve(p *sched.Pool, board *Board, opts *Options) (*Board, *Options, bool) {
	return solve(p, board, opts, false)
}

// solve is Solve's recursion.  owned reports that the frame alone holds
// (board, opts): never at the top, where the pair is the caller's or a
// record's, always below, where the parent built the pair for this frame.
// An owned frame places the last number open at (i, j) into the pair itself
// (DESIGN §14): the loop then reads only memOpts.Get(i, j, k') past it, false
// already and kept false by the "this cell" generator.  Every other
// placement copies, so a branch point keeps the state it returns to.
func solve(p *sched.Pool, board *Board, opts *Options, owned bool) (*Board, *Options, bool) {
	i, j, stuck, done := survey(board, opts)
	if stuck || done {
		return board, opts, done
	}
	N, open := board.N(), opts.Count(i, j)
	memBoard, memOpts := board, opts
	for k := 1; k <= N; k++ {
		if memOpts.Get(i, j, k) {
			open--
			b2, o2 := addNumber(p, memBoard, memOpts, i, j, k, owned && open == 0)
			b3, o3, solved := solve(p, b2, o2, true)
			if solved {
				return b3, o3, true
			}
			// board/opts carry the last attempt (§3).  It failed, so its
			// board is not completed: §3 line 8's !isCompleted holds.
			board, opts = b3, o3
		}
	}
	return board, opts, false
}

// SolveBoard is the end-to-end convenience: compute options, then solve.
func SolveBoard(p *sched.Pool, b *Board) (*Board, bool) {
	opts, consistent := ComputeOpts(p, b)
	if !consistent {
		return b, false
	}
	sb, _, solved := Solve(p, b, opts)
	return sb, solved
}

// CountSolutions counts the puzzle's solutions, stopping once limit is
// reached (limit 2 suffices for uniqueness checks).  It writes no argument:
// the search starts from a copy of b and ComputeOpts' fresh cube, so every
// frame holds its pair alone and places its last open number in place, as
// solve's owned frames do.
func CountSolutions(p *sched.Pool, b *Board, limit int) int {
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
		i, j, stuck, done := survey(board, opts)
		if done {
			count++
		}
		if stuck || done {
			return
		}
		N, open := board.N(), opts.Count(i, j)
		for k := 1; k <= N && count < limit; k++ {
			if opts.Get(i, j, k) {
				open--
				rec(addNumber(p, board, opts, i, j, k, open == 0))
			}
		}
	}
	rec(b.Clone(), opts)
	return count
}

// SolveOneLevelOutput is one record emitted by SolveOneLevel: either a
// completed board (Done) or a deeper search state to be handled by the next
// pipeline stage, annotated with the paper's control tags.
type SolveOneLevelOutput struct {
	Board *Board
	Opts  *Options
	Done  bool
	K     int // the number tried at the selected position (Fig. 2's <k>)
	Level int // numbers placed so far (Fig. 3's <level>)
}

// SolveOneLevel is the paper's §5 solveOneLevel: instead of recursing it
// emits one record per viable choice at the selected position via emit —
// the snet_out calls of Fig. 1.  Stuck boards emit nothing; a board
// completed by a placement emits a Done record.
func SolveOneLevel(p *sched.Pool, board *Board, opts *Options, emit func(SolveOneLevelOutput) error) error {
	i, j, stuck, done := survey(board, opts)
	if stuck || done {
		return nil
	}
	N, level := board.N(), board.CountFilled()+1 // every child fills (i, j)
	completed := false
	for k := 1; k <= N && !completed; k++ {
		if !opts.Get(i, j, k) {
			continue
		}
		b2, o2 := AddNumber(p, board, opts, i, j, k)
		completed = level == N*N
		if err := emit(SolveOneLevelOutput{
			Board: b2, Opts: o2, Done: completed, K: k, Level: level,
		}); err != nil {
			return err
		}
	}
	return nil
}
