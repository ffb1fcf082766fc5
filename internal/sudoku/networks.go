package sudoku

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
)

// NetConfig selects the network variant and its parameters.
type NetConfig struct {
	// Pool executes the data-parallel with-loops inside the boxes (the
	// "SaC threads"); nil selects a sequential pool, which isolates the
	// coordination-level concurrency the figures are about.
	Pool *sched.Pool
	// Throttle m > 0 inserts Fig. 3's filter {<k>} -> {<k>=<k>%m} in
	// front of the parallel replicator, capping its width at m.
	Throttle int
	// ExitLevel is Fig. 3's serial-replicator exit threshold L in
	// {<level>} | <level> > L.  Zero selects the paper's 40.
	ExitLevel int
	// Det selects the deterministic combinator variants (|, *, !) —
	// not used by the paper's figures (which use **, !!) but provided
	// for the determinism ablation.
	Det bool
}

func (c NetConfig) pool() *sched.Pool {
	if c.Pool == nil {
		return sched.New(1)
	}
	return c.Pool
}

func (c NetConfig) star(name string, operand core.Node, exit core.Pattern) core.Node {
	if c.Det {
		return core.NamedStarDet(name, operand, exit)
	}
	return core.NamedStar(name, operand, exit)
}

func (c NetConfig) split(name string, operand core.Node, tag string) core.Node {
	if c.Det {
		return core.NamedSplitDet(name, operand, tag)
	}
	return core.NamedSplit(name, operand, tag)
}

// Fig1Net builds the paper's Figure 1 network:
//
//	computeOpts .. (solveOneLevel ** {<done>})
//
// The serial replicator unfolds into a pipeline of solveOneLevel boxes; a
// record leaves as soon as it carries <done>.  For an N×N board the
// unfolding is bounded by the number of cells (≤ 81 stages for 9×9).
func Fig1Net(cfg NetConfig) core.Node {
	p := cfg.pool()
	return core.Serial(
		ComputeOptsBox(p),
		cfg.star("solve_loop", SolveOneLevelBoxFig1(p), core.MustParsePattern("{<done>}")),
	)
}

// Fig2Net builds the paper's Figure 2 network with full unfolding:
//
//	computeOpts .. [{} -> {<k>=1}] .. ((solveOneLevel !! <k>) ** {<done>})
//
// The filter seeds the <k> tag (board and opts flow-inherit through it);
// within every pipeline stage the parallel replicator fans out by <k>, so
// sibling alternatives of a search node proceed concurrently — at most 9
// replicas per stage and 9×81 = 729 boxes for 9×9 (§5).
func Fig2Net(cfg NetConfig) core.Node {
	p := cfg.pool()
	return core.Serial(
		ComputeOptsBox(p),
		core.MustFilter("{} -> {<k>=1}"),
		cfg.star("solve_loop",
			cfg.split("level_split", SolveOneLevelBoxFig2(p), "k"),
			core.MustParsePattern("{<done>}")),
	)
}

// Fig3Net builds the paper's Figure 3 network with throttled unfolding:
//
//	computeOpts .. [{} -> {<k>=1}] ..
//	  (([{<k>} -> {<k>=<k>%m}] .. (solveOneLevel !! <k>)) ** ({<level>} | <level> > L)) ..
//	  solve
//
// The modulo filter caps the parallel width at m (the paper uses 4); the
// guarded exit releases records once more than L numbers are placed (the
// paper uses 40), and the terminal solve box finishes non-completed boards
// sequentially.
func Fig3Net(cfg NetConfig) core.Node {
	p := cfg.pool()
	m := cfg.Throttle
	if m <= 0 {
		m = 4
	}
	L := cfg.ExitLevel
	if L <= 0 {
		L = 40
	}
	inner := core.Serial(
		core.MustFilter(fmt.Sprintf("{<k>} -> {<k>=<k>%%%d}", m)),
		cfg.split("level_split", SolveOneLevelBoxFig3(p), "k"),
	)
	exit := core.MustParsePattern(fmt.Sprintf("{<level>} | <level> > %d", L))
	return core.Serial(
		ComputeOptsBox(p),
		core.MustFilter("{} -> {<k>=1}"),
		cfg.star("solve_loop", inner, exit),
		SolveBox(p),
	)
}

// SolveWithNet compiles a solver network, runs one puzzle through the plan
// and returns the first completed board (nil if the network drains without a
// solution — unsolvable puzzle), together with the run's statistics.
func SolveWithNet(ctx context.Context, net core.Node, puzzle *Board, opts ...core.Option) (*Board, *core.Stats, error) {
	plan, err := core.Compile(net)
	if err != nil {
		return nil, nil, err
	}
	input := core.NewRecord().SetField("board", puzzle)
	rec, stats, err := plan.RunUntil(ctx, []*core.Record{input}, func(r *core.Record) bool {
		v, ok := r.Field("board")
		if !ok {
			return false
		}
		b, ok := v.(*Board)
		return ok && b.IsCompleted()
	}, opts...)
	if err != nil || rec == nil {
		return nil, stats, err
	}
	v, _ := rec.Field("board")
	return v.(*Board), stats, nil
}
