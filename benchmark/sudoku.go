package main

import (
	"repro/sac"
	"repro/snet"
	"repro/sudoku"
)

const (
	sudokuPuzzles = 64 // corpus size, and puzzles per Plan.RunAll call
	// At 44 holes most puzzles are searched through without a guess and a few
	// branch.  With more holes one or two hard puzzles in a corpus decide its
	// work: allocs_per_op moved 9.1% from seed to seed at 50 holes and 2.7%
	// at 46 (interquartile, seeds 1-10), against 1.2% here and a bound of 5%.
	sudokuHoles    = 44
	sudokuThrottle = 4  // Fig. 3's m
	sudokuLevel    = 40 // Fig. 3's L
)

// seqPool runs with-loops sequentially: the coordination-level concurrency is
// what the sudoku nets are about, as in cmd/snetd's default of one worker.
var seqPool = sac.NewPool(1)

var sudokuSearch = &workload{
	name: "sudoku_search",
	why: "the paper's Fig. 3 net (m=4, L=40) fed a seeded corpus of unique-solution 9x9 puzzles as a stream: " +
		"the case study, star x split unfolding around real box compute",
	op:       "puzzle",
	callOps:  sudokuPuzzles,
	sliceOps: 17 * sudokuPuzzles,
	traceOps: 10 * sudokuPuzzles,
	setup: func(seed int64, maxOps int) (instance, error) {
		return newSearch(seed, sudokuPuzzles, maxOps/sudokuPuzzles+1)
	},
}

// newSearch draws a corpus of n puzzles from the seed and compiles the net;
// calls is the most Plan.RunAll calls one slice will make.
func newSearch(seed int64, n, calls int) (*search, error) {
	s := &search{byBoard: map[string]int{}}
	for i := 0; i < n; i++ {
		puzzle, solution := sudoku.Generate(seqPool, 3, seed*sudokuPuzzles+int64(i), sudokuHoles, true)
		s.byBoard[solution.String()] = i
		s.puzzles = append(s.puzzles, puzzle)
	}
	p, err := snet.Compile(s.build())
	if err != nil {
		return nil, err
	}
	s.runAller = runAller{p: p, callOps: n, inputs: s.inputs, check: s.bounded, lat: make([]int64, calls)}
	return s, nil
}

// search is the sudoku_search workload.  Plan.RunAll, not RunUntil, so every
// search branch runs to its end and the box-call and replica counts of a
// call repeat exactly.
type search struct {
	puzzles []*sudoku.Board
	byBoard map[string]int // solved board → index of its puzzle
	runAller
}

func (s *search) build() snet.Node {
	return sudoku.Fig3Net(sudoku.NetConfig{Throttle: sudokuThrottle, ExitLevel: sudokuLevel})
}

func (s *search) inputs() []*snet.Record {
	in := make([]*snet.Record, len(s.puzzles))
	for i, b := range s.puzzles {
		in[i] = snet.NewRecord().SetField("board", b)
	}
	return in
}

// bounded fails the whole call when the unfolding exceeded the paper's bounds
// — at most 81 star stages for a 9x9 board, a split no wider than the
// throttle m — and otherwise counts the unsolved puzzles.
func (s *search) bounded(out []*snet.Record, st *snet.Stats) int {
	if st.Max("star.solve_loop.depth") > 81 || st.Max("split.level_split.width") > sudokuThrottle {
		return len(s.puzzles)
	}
	return s.solved(out, st)
}

// solved counts the puzzles whose unique solution did not come out.
func (s *search) solved(out []*snet.Record, _ *snet.Stats) int {
	found := make([]bool, len(s.puzzles))
	n := 0
	for _, r := range out {
		v, _ := r.Field("board")
		b, ok := v.(*sudoku.Board)
		if !ok || !b.IsSolved() {
			continue // a dead end of the search
		}
		if i, known := s.byBoard[b.String()]; known && !found[i] {
			found[i] = true
			n++
		}
	}
	return len(s.puzzles) - n
}

func (s *search) reference(ops int) {
	for i := 0; i < ops; i++ {
		if _, ok := sudoku.SolveBoard(seqPool, s.puzzles[i%len(s.puzzles)]); !ok {
			panic("sudoku reference failed on a generated puzzle")
		}
	}
}
