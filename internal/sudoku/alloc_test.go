package sudoku

import "testing"

// TestSudokuAllocGates pins what the solver's array accesses allocate: the
// reads nothing, AddNumber what its two fresh values and its with-loop need,
// a placement into a pair its caller alone holds what the with-loop needs,
// ComputeOpts the same however many givens the board has.  Each limit is the
// figure reached; the figure in brackets is what the call allocated while
// array.At let its index vector escape, the with-loop engine built its bounds
// with make and every array had a shape vector of its own.
func TestSudokuAllocGates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping")
	}
	b, full := Easy(), GenerateSolved(3, 1)
	o, _ := ComputeOpts(sp, b)
	ob, oo := b.Clone(), o.Clone() // the pair an owned frame of the search holds
	sink := 0
	var keep *Options // a result nobody holds may not be allocated at all
	gates := []struct {
		name string
		max  float64
		f    func()
	}{
		{"Board.Get", 0, func() { sink += b.Get(4, 4) }},                      // [1]
		{"Board.Valid", 0, func() { _ = b.Valid() }},                          // [1]
		{"Options.Get", 0, func() { _ = o.Get(4, 4, 5) }},                     // [1]
		{"Options.Count", 0, func() { sink += o.Count(4, 4) }},                // [0]
		{"FindMinTrues", 0, func() { i, _, _ := FindMinTrues(o); sink += i }}, // [0]
		{"IsStuck", 0, func() { _ = IsStuck(b, o) }},                          // [81, one a Get]
		// [43, then 13] board and options (a struct, an Array and its data
		// each), the generators' bounds, the with-loop's index vector
		{"AddNumber", 8, func() { var nb *Board; nb, keep = AddNumber(sp, b, o, 0, 2, 4); sink += nb.Get(0, 2) }},
		// [8, as AddNumber] the bounds, the index vector
		{"addNumber, owned", 2, func() { _, keep = addNumber(sp, ob, oo, 0, 2, 4, true) }},
		// [13 a given: 400 and 1 063, then 10 with a copy of the cube] the
		// all-true cube (four: its shape as written and as kept, the Array,
		// the data), the bounds, the generator list, the index vector, the
		// Options
		{"ComputeOpts, 30 givens", 8, func() { keep, _ = ComputeOpts(sp, b) }},
		{"ComputeOpts, 81 givens", 8, func() { keep, _ = ComputeOpts(sp, full) }},
		// [418, AddNumber at each of the 51 placements] ComputeOpts, the top
		// frame's one placement, which copies, and 50 owned ones
		{"Solve Easy from ComputeOpts", 116, func() { oe, _ := ComputeOpts(sp, b); _, keep, _ = Solve(sp, b, oe) }},
	}
	for _, g := range gates {
		if got := testing.AllocsPerRun(100, g.f); got > g.max {
			t.Errorf("%s: %v allocations a call, want at most %v", g.name, got, g.max)
		}
	}
	_, _ = sink, keep
}
