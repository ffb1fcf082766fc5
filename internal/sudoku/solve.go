package sudoku

import "repro/internal/sched"

// Solve is the paper's §3 sequential solver with the findMinTrues heuristic:
// depth-first search that places one number per level, backtracking through
// the option cube.  It returns the first solution found (solved == true) or
// the board where the search got stuck, and writes neither argument.
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
	if IsStuck(board, opts) || board.IsCompleted() {
		return board, opts, board.IsCompleted()
	}
	i, j, ok := FindMinTrues(opts)
	if !ok {
		return board, opts, board.IsCompleted()
	}
	N, open := board.N(), opts.Count(i, j)
	memBoard, memOpts := board, opts
	for k := 1; k <= N && !board.IsCompleted(); k++ {
		if memOpts.Get(i, j, k) {
			open--
			b2, o2 := addNumber(p, memBoard, memOpts, i, j, k, owned && open == 0)
			b3, o3, solved := solve(p, b2, o2, true)
			if solved {
				return b3, o3, true
			}
			// keep the paper's shape: board/opts carry the last
			// attempt so the loop condition mirrors §3 line 8
			board, opts = b3, o3
		}
	}
	return board, opts, board.IsCompleted()
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
		if count >= limit || IsStuck(board, opts) {
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
	if IsStuck(board, opts) || board.IsCompleted() {
		return nil
	}
	i, j, ok := FindMinTrues(opts)
	if !ok {
		return nil
	}
	N := board.N()
	memBoard, memOpts := board, opts
	completed := false
	for k := 1; k <= N && !completed; k++ {
		if !memOpts.Get(i, j, k) {
			continue
		}
		b2, o2 := AddNumber(p, memBoard, memOpts, i, j, k)
		outRec := SolveOneLevelOutput{
			Board: b2, Opts: o2, K: k, Level: b2.CountFilled(),
		}
		if b2.IsCompleted() {
			outRec.Done = true
			completed = true
		}
		if err := emit(outRec); err != nil {
			return err
		}
	}
	return nil
}
