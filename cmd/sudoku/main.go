// Command sudoku solves sudoku puzzles with the paper's solvers: the
// sequential §3 algorithm or the S-Net networks of Figures 1–3.
//
// Usage:
//
//	sudoku -mode seq|fig1|fig2|fig3|hybrid [-puzzle easy|medium|hard]
//	       [-board 81chars] [-size n -holes h -seed s] [-workers w]
//	       [-throttle m] [-level L] [-det] [-stats]
//
// Examples:
//
//	sudoku -mode fig2 -puzzle hard -stats
//	sudoku -mode fig3 -size 4 -holes 80 -throttle 4 -level 200
//	sudoku -mode seq -board 53..7....6..195....98....6.8...6...34..8.3..17...2...6.6....28....419..5....8..79
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/sac"
	"repro/snet"
	"repro/sudoku"
)

func main() {
	var (
		mode     = flag.String("mode", "seq", "solver: seq, fig1, fig2, fig3 or hybrid (interpreted SaC boxes)")
		puzzleNm = flag.String("puzzle", "easy", "fixed 9x9 puzzle: easy, medium or hard")
		boardStr = flag.String("board", "", "explicit 81-character 9x9 board ('.' or '0' for empty)")
		size     = flag.Int("size", 0, "generate an n²×n² puzzle with this sub-board size instead")
		holes    = flag.Int("holes", 40, "holes to dig when generating")
		seed     = flag.Int64("seed", 1, "generation seed")
		workers  = flag.Int("workers", 1, "data-parallel with-loop workers ('SaC threads')")
		throttle = flag.Int("throttle", 4, "fig3: parallel-width throttle m in {<k>}->{<k>=<k>%m}")
		level    = flag.Int("level", 40, "fig3: serial-replication exit level L")
		det      = flag.Bool("det", false, "use deterministic combinator variants (|, *, !)")
		stats    = flag.Bool("stats", false, "print network statistics")
		quiet    = flag.Bool("quiet", false, "suppress board output")
	)
	flag.Parse()

	pool := sac.NewPool(*workers)
	puzzle, err := selectPuzzle(pool, *puzzleNm, *boardStr, *size, *holes, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sudoku:", err)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Println("puzzle:")
		fmt.Println(puzzle)
	}

	start := time.Now()
	var (
		solution *sudoku.Board
		st       *snet.Stats
	)
	switch *mode {
	case "seq":
		b, ok := sudoku.SolveBoard(pool, puzzle)
		if ok {
			solution = b
		}
	case "fig1", "fig2", "fig3":
		cfg := sudoku.NetConfig{Pool: pool, Throttle: *throttle, ExitLevel: *level, Det: *det}
		var net snet.Node
		switch *mode {
		case "fig1":
			net = sudoku.Fig1Net(cfg)
		case "fig2":
			net = sudoku.Fig2Net(cfg)
		default:
			net = sudoku.Fig3Net(cfg)
		}
		solution, st, err = sudoku.SolveWithNet(context.Background(), net, puzzle)
	case "hybrid":
		boxes := sudoku.NewSacBoxes(pool)
		solution, st, err = boxes.SolveHybrid(context.Background(), puzzle)
	default:
		fmt.Fprintf(os.Stderr, "sudoku: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sudoku:", err)
		os.Exit(1)
	}
	if solution == nil {
		fmt.Printf("no solution (%v)\n", elapsed)
		os.Exit(1)
	}
	if !solution.IsSolved() || !solution.Extends(puzzle) {
		fmt.Fprintln(os.Stderr, "sudoku: internal error: invalid solution")
		os.Exit(1)
	}
	if !*quiet {
		fmt.Println("solution:")
		fmt.Println(solution)
	}
	fmt.Printf("solved in %v (mode %s, %d workers)\n", elapsed, *mode, *workers)
	if *stats && st != nil {
		fmt.Println("network statistics:")
		snap := st.Snapshot()
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-45s %d\n", k, snap[k])
		}
	}
}

func selectPuzzle(pool *sac.Pool, name, board string, size, holes int, seed int64) (*sudoku.Board, error) {
	switch {
	case board != "":
		return sudoku.Parse(board)
	case size > 0:
		unique := size <= 3 // uniqueness checking is practical up to 9×9
		p, _ := sudoku.Generate(pool, size, seed, holes, unique)
		return p, nil
	default:
		p, ok := sudoku.Fixed9x9()[name]
		if !ok {
			return nil, fmt.Errorf("unknown puzzle %q (want easy, medium or hard)", name)
		}
		return p, nil
	}
}
