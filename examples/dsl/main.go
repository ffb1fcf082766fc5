// The textual S-Net language in action: the Fig. 2 sudoku network written
// exactly as the paper draws it, parsed, type-checked, bound to box
// implementations through a registry, and run.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/sac"
	"repro/snet"
	"repro/snet/lang"
	"repro/sudoku"
)

// The network of Fig. 2 with full unfolding, in the paper's own notation:
// the filter seeds the <k> tag, the parallel replicator !!<k> fans sibling
// alternatives out, the serial replicator ** unfolds the search depth, and
// {<done>} extracts finished boards.
const src = `
box computeOpts (board) -> (board, opts);
box solveOneLevel (board, opts) -> (board, opts, <k>) | (board, <done>);

net fig2 connect
    computeOpts .. [{} -> {<k>=1}] .. ((solveOneLevel !! <k>) ** {<done>});
`

func main() {
	pool := sac.NewPool(1)

	// The registry plays the SaC compiler's role: it binds the declared
	// box names to executable implementations.
	reg := lang.NewRegistry().
		RegisterNode("computeOpts", sudoku.ComputeOptsBox(pool)).
		RegisterNode("solveOneLevel", sudoku.SolveOneLevelBoxFig2(pool))

	prog, err := lang.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("parsed program:")
	fmt.Println(prog)

	net, err := lang.Build(prog, "fig2", reg)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := snet.Compile(net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inferred type: %v -> %v\n", plan.In(), plan.Out())
	for _, d := range plan.Warnings() {
		fmt.Println("  ", d)
	}

	puzzle := sudoku.Medium()
	board, stats, err := sudoku.SolveWithNet(context.Background(), net, puzzle)
	if err != nil {
		log.Fatal(err)
	}
	if board == nil {
		log.Fatal("no solution found")
	}
	fmt.Println("\nsolution:")
	fmt.Println(board)
	fmt.Printf("pipeline stages: %d, solveOneLevel instances: %d\n",
		stats.Counter("star.fig2.star.replicas"),
		stats.Counter("box.solveOneLevel.instances"))
}
