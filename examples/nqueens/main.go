// The coordination pattern of the paper generalised to another search
// problem: N-queens through the same network shape as Fig. 2 — a
// place-one-piece box inside a tag-indexed parallel replicator inside a
// serial replicator.  This is the "representative for more complex search
// problems" claim of the abstract: nothing in the network is
// sudoku-specific.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/snet"
)

// board is a partial placement: queens[i] = column of the queen in row i.
type board struct {
	n      int
	queens []int
}

func (b board) safe(col int) bool {
	row := len(b.queens)
	for r, c := range b.queens {
		if c == col || c-col == row-r || col-c == row-r {
			return false
		}
	}
	return true
}

func (b board) place(col int) board {
	q := append(append([]int(nil), b.queens...), col)
	return board{n: b.n, queens: q}
}

func main() {
	n := flag.Int("n", 8, "board size")
	all := flag.Bool("all", false, "count all solutions instead of stopping at the first")
	flag.Parse()

	// placeOne emits one record per safe column for the next row —
	// exactly solveOneLevel's shape: alternatives become records, the
	// tried choice becomes the replication tag <k>.
	placeOne := snet.NewBox("placeOne",
		snet.MustParseSignature("(board) -> (board, <k>) | (board, <done>)"),
		func(args []any, out *snet.Emitter) error {
			b := args[0].(board)
			if len(b.queens) == b.n {
				return out.Out(2, b, 1)
			}
			for col := 0; col < b.n; col++ {
				if !b.safe(col) {
					continue
				}
				if err := out.Out(1, b.place(col), col%4); err != nil {
					return err
				}
			}
			return nil
		})

	// The Fig. 2 network, verbatim in structure:
	// [{} -> {<k>=1}] .. ((placeOne !! <k>) ** {<done>})
	// The leading filter consumes nothing, so the board reaches placeOne by
	// flow inheritance alone; declaring the input type lets Compile see it.
	plan := snet.MustCompile(snet.Serial(
		snet.MustFilter("{} -> {<k>=1}"),
		snet.NamedStar("search",
			snet.NamedSplit("fan", placeOne, "k"),
			snet.MustParsePattern("{<done>}")),
	), snet.WithInputType(snet.RecType{snet.NewVariant(snet.Field("board"))}))

	input := []*snet.Record{snet.NewRecord().SetField("board", board{n: *n})}
	if *all {
		out, stats, err := plan.RunAll(context.Background(), input)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d-queens: %d solutions (%d pipeline stages, %d box instances)\n",
			*n, len(out),
			stats.Counter("star.search.replicas"),
			stats.Counter("box.placeOne.instances"))
		return
	}
	rec, stats, err := plan.RunUntil(context.Background(), input,
		func(r *snet.Record) bool { _, done := r.Tag("done"); return done })
	if err != nil {
		log.Fatal(err)
	}
	if rec == nil {
		fmt.Printf("%d-queens: no solution\n", *n)
		return
	}
	v, _ := rec.Field("board")
	b := v.(board)
	fmt.Printf("%d-queens solution (found with %d stages unfolded):\n",
		*n, stats.Counter("star.search.replicas"))
	for _, c := range b.queens {
		for j := 0; j < b.n; j++ {
			if j == c {
				fmt.Print(" Q")
			} else {
				fmt.Print(" .")
			}
		}
		fmt.Println()
	}
}
