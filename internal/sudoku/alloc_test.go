package sudoku

import "testing"

// TestSudokuAllocGates pins what the solver's array accesses allocate: the
// reads nothing, AddNumber what its two fresh values and its with-loop need.
// Each limit is the figure reached; the figure in brackets is what the call
// allocated while array.At let its index vector escape and the with-loop
// engine built its bounds with make.
func TestSudokuAllocGates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping")
	}
	b := Easy()
	o, _ := ComputeOpts(sp, b)
	sink := 0
	gates := []struct {
		name string
		max  float64
		f    func()
	}{
		{"Board.Get", 0, func() { sink += b.Get(4, 4) }},                                          // [1]
		{"Options.Get", 0, func() { _ = o.Get(4, 4, 5) }},                                         // [1]
		{"Options.Count", 0, func() { sink += o.Count(4, 4) }},                                    // [0]
		{"FindMinTrues", 0, func() { i, _, _ := FindMinTrues(o); sink += i }},                     // [0]
		{"IsStuck", 0, func() { _ = IsStuck(b, o) }},                                              // [81, one a Get]
		{"AddNumber", 13, func() { nb, _ := AddNumber(sp, b, o, 0, 2, 4); sink += nb.Get(0, 2) }}, // [43]
	}
	for _, g := range gates {
		if got := testing.AllocsPerRun(100, g.f); got > g.max {
			t.Errorf("%s: %v allocations a call, want at most %v", g.name, got, g.max)
		}
	}
	_ = sink
}
