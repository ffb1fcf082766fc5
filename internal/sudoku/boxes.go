package sudoku

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
)

// S-Net boxes wrapping the solver functions (§5).  Records carry the board
// and option cube as opaque fields "board" and "opts"; the control tags are
// <done> (Fig. 1/2), <k> (Fig. 2/3) and <level> (Fig. 3).

// arg extracts a box argument, the record's field name, as a T.
func arg[T any](v any, name string) (T, error) {
	x, ok := v.(T)
	if !ok {
		return x, fmt.Errorf("sudoku: field %s holds %T, want %T", name, v, x)
	}
	return x, nil
}

// ComputeOptsBox is Fig. 1's initialisation box:
//
//	box computeOpts {board} -> {board, opts}
//
// It derives the option cube as §3 does, by adding every given to an
// all-true cube (ComputeOpts: the loop over addNumber as one with-loop).
// Inconsistent boards (a given violates the rules) emit nothing and are
// reported as a box error.
func ComputeOptsBox(p *sched.Pool) core.Node {
	return core.NewBox("computeOpts",
		core.MustParseSignature("(board) -> (board, opts)"),
		func(args []any, out *core.Emitter) error {
			b, err := arg[*Board](args[0], "board")
			if err != nil {
				return err
			}
			opts, consistent := ComputeOpts(p, b)
			if !consistent {
				return fmt.Errorf("sudoku: inconsistent board (a given violates the rules)")
			}
			return out.Out(1, b, opts)
		})
}

// SolveOneLevelBoxFig1 is Fig. 1's box:
//
//	box solveOneLevel {board, opts} -> {board, opts} | {board, <done>}
func SolveOneLevelBoxFig1(p *sched.Pool) core.Node {
	return core.NewBox("solveOneLevel",
		core.MustParseSignature("(board, opts) -> (board, opts) | (board, <done>)"),
		func(args []any, out *core.Emitter) error {
			return solveOneLevelBody(p, args, func(o SolveOneLevelOutput) error {
				if o.Done {
					return out.Out(2, o.Board, 1)
				}
				return out.Out(1, o.Board, o.Opts)
			})
		})
}

// SolveOneLevelBoxFig2 is Fig. 2's box, which additionally emits the tried
// number as tag <k> for the parallel replicator:
//
//	box solveOneLevel {board, opts} -> {board, opts, <k>} | {board, <done>}
func SolveOneLevelBoxFig2(p *sched.Pool) core.Node {
	return core.NewBox("solveOneLevel",
		core.MustParseSignature("(board, opts) -> (board, opts, <k>) | (board, <done>)"),
		func(args []any, out *core.Emitter) error {
			return solveOneLevelBody(p, args, func(o SolveOneLevelOutput) error {
				if o.Done {
					return out.Out(2, o.Board, 1)
				}
				return out.Out(1, o.Board, o.Opts, o.K)
			})
		})
}

// SolveOneLevelBoxFig3 is Fig. 3's box, emitting <k> and the unfolding
// level (numbers placed so far) so the network can throttle and exit:
//
//	box solveOneLevel {board, opts} -> {board, opts, <k>, <level>}
//
// Completed boards carry level == N², which exceeds any exit threshold
// below N² and therefore leaves the serial replicator.
func SolveOneLevelBoxFig3(p *sched.Pool) core.Node {
	return core.NewBox("solveOneLevel",
		core.MustParseSignature("(board, opts) -> (board, opts, <k>, <level>)"),
		func(args []any, out *core.Emitter) error {
			return solveOneLevelBody(p, args, func(o SolveOneLevelOutput) error {
				return out.Out(1, o.Board, o.Opts, o.K, o.Level)
			})
		})
}

func solveOneLevelBody(p *sched.Pool, args []any, emit func(SolveOneLevelOutput) error) error {
	b, err := arg[*Board](args[0], "board")
	if err != nil {
		return err
	}
	o, err := arg[*Options](args[1], "opts")
	if err != nil {
		return err
	}
	return SolveOneLevel(p, b, o, emit)
}

// SolveBox is Fig. 3's terminal box wrapping the full sequential solver of
// §3:
//
//	box solve {board, opts} -> {board, opts}
//
// Complete boards pass through unchanged; incomplete ones are solved to the
// first solution (or to the stuck board).
func SolveBox(p *sched.Pool) core.Node {
	return core.NewBox("solve",
		core.MustParseSignature("(board, opts) -> (board, opts)"),
		func(args []any, out *core.Emitter) error {
			b, err := arg[*Board](args[0], "board")
			if err != nil {
				return err
			}
			o, err := arg[*Options](args[1], "opts")
			if err != nil {
				return err
			}
			sb, so, _ := Solve(p, b, o)
			return out.Out(1, sb, so)
		})
}
