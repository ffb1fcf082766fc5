package sudoku

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/sacvm"
	"repro/internal/sched"
)

// The hybrid configuration of §5: the box functions are the paper's actual
// SaC code, interpreted by internal/sacvm, coordinated by the same S-Net
// networks.  Record fields hold sacvm.Value payloads (opaque to the
// coordination layer, as S-Net requires); conversion to and from the native
// Board representation happens only at the network boundary.

// SacBoxes wires an interpreter of the paper's sudoku.sac into S-Net box
// nodes.
type SacBoxes struct {
	itp *sacvm.Interp
}

// NewSacBoxes loads the embedded sudoku.sac (§3/§5 code) on the given pool.
func NewSacBoxes(pool *sched.Pool) *SacBoxes {
	return &SacBoxes{itp: sacvm.New(sacvm.MustParse(sacvm.SudokuSaC), pool)}
}

// Interp exposes the underlying interpreter (for direct function calls in
// tests and tools).
func (s *SacBoxes) Interp() *sacvm.Interp { return s.itp }

// BoardToValue converts a native board to the SaC int[9,9] representation.
func BoardToValue(b *Board) sacvm.Value {
	return sacvm.IntValue(b.Cells().Clone())
}

// ValueToBoard converts a SaC int[N,N] value back to a native board.
func ValueToBoard(v sacvm.Value) (*Board, error) {
	if v.Kind != sacvm.KindInt || v.Dim() != 2 {
		return nil, fmt.Errorf("sudoku: value %s is not a board", v.TypeString())
	}
	sh := v.Shape()
	n := intSqrt(sh[0])
	if n*n != sh[0] || sh[0] != sh[1] {
		return nil, fmt.Errorf("sudoku: board shape %v is not n²×n²", sh)
	}
	for at, x := range v.I.Data() {
		if x < 0 || x > sh[0] {
			return nil, fmt.Errorf("sudoku: cell (%d,%d) value %d out of range", at/sh[0], at%sh[0], x)
		}
	}
	return &Board{n: n, cells: v.I.Clone()}, nil
}

// ComputeOptsBox is the computeOpts box backed by interpreted SaC.
func (s *SacBoxes) ComputeOptsBox() core.Node {
	return core.NewBox("computeOpts",
		core.MustParseSignature("(board) -> (board, opts)"),
		func(args []any, out *core.Emitter) error {
			bv, err := arg[sacvm.Value](args[0], "board")
			if err != nil {
				return err
			}
			res, err := s.itp.Call("computeOpts", []sacvm.Value{bv}, nil)
			if err != nil {
				return err
			}
			return out.Out(1, res[0], res[1])
		})
}

// SolveOneLevelBox is the solveOneLevel box of Fig. 1 backed by the paper's
// interpreted SaC function, whose snet_out calls become emitted records.
func (s *SacBoxes) SolveOneLevelBox() core.Node {
	return core.NewBox("solveOneLevel",
		core.MustParseSignature("(board, opts) -> (board, opts) | (board, <done>)"),
		func(args []any, out *core.Emitter) error {
			bv, err := arg[sacvm.Value](args[0], "board")
			if err != nil {
				return err
			}
			ov, err := arg[sacvm.Value](args[1], "opts")
			if err != nil {
				return err
			}
			_, err = s.itp.Call("solveOneLevel", []sacvm.Value{bv, ov},
				func(variant int, vals []sacvm.Value) error {
					switch variant {
					case 1:
						return out.Out(1, vals[0], vals[1])
					case 2:
						done, err := vals[1].AsInt(sacvm.Pos{})
						if err != nil {
							return err
						}
						return out.Out(2, vals[0], done)
					}
					return fmt.Errorf("unexpected snet_out variant %d", variant)
				})
			return err
		})
}

// SolveBox is the full §3 solver as a box, interpreted.
func (s *SacBoxes) SolveBox() core.Node {
	return core.NewBox("solve",
		core.MustParseSignature("(board, opts) -> (board, opts)"),
		func(args []any, out *core.Emitter) error {
			bv, err := arg[sacvm.Value](args[0], "board")
			if err != nil {
				return err
			}
			ov, err := arg[sacvm.Value](args[1], "opts")
			if err != nil {
				return err
			}
			res, err := s.itp.Call("solve", []sacvm.Value{bv, ov}, nil)
			if err != nil {
				return err
			}
			return out.Out(1, res[0], res[1])
		})
}

// Fig1HybridNet is the Fig. 1 network with SaC-interpreted boxes — the
// paper's actual two-layer configuration.
func (s *SacBoxes) Fig1HybridNet() core.Node {
	return core.Serial(
		s.ComputeOptsBox(),
		core.NamedStar("solve_loop", s.SolveOneLevelBox(), core.MustParsePattern("{<done>}")),
	)
}

// SolveHybrid runs a puzzle through the hybrid Fig. 1 network and returns
// the first solution.
func (s *SacBoxes) SolveHybrid(ctx context.Context, puzzle *Board, opts ...core.Option) (*Board, *core.Stats, error) {
	if puzzle.SubSize() != 3 {
		return nil, nil, fmt.Errorf("sudoku: the paper's SaC code is written for 9×9 boards")
	}
	plan, err := core.Compile(s.Fig1HybridNet())
	if err != nil {
		return nil, nil, err
	}
	input := core.NewRecord().SetField("board", BoardToValue(puzzle))
	rec, stats, err := plan.RunUntil(ctx, []*core.Record{input},
		func(r *core.Record) bool {
			_, done := r.Tag("done")
			return done
		}, opts...)
	if err != nil || rec == nil {
		return nil, stats, err
	}
	v, ok := rec.Field("board")
	if !ok {
		return nil, stats, fmt.Errorf("sudoku: result record lacks board")
	}
	sv, err := arg[sacvm.Value](v, "board")
	if err != nil {
		return nil, stats, err
	}
	b, err := ValueToBoard(sv)
	return b, stats, err
}

// OptionsToValue converts native options to the SaC bool[N,N,N] cube.
func OptionsToValue(o *Options) sacvm.Value {
	return sacvm.BoolValue(o.cube.Clone())
}

// ValueToOptions converts a SaC bool cube back to native options.
func ValueToOptions(v sacvm.Value) (*Options, error) {
	if v.Kind != sacvm.KindBool || v.Dim() != 3 {
		return nil, fmt.Errorf("sudoku: value %s is not an option cube", v.TypeString())
	}
	n := intSqrt(v.Shape()[0])
	return &Options{n: n, cube: v.B.Clone()}, nil
}
