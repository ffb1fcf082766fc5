package sudoku

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/sched"
)

func TestNewOptionsAllTrue(t *testing.T) {
	o := NewOptions(3)
	for k := 1; k <= 9; k++ {
		if !o.Get(0, 0, k) || !o.Get(8, 8, k) {
			t.Fatal("fresh options must be all true")
		}
	}
	if o.Count(4, 4) != 9 {
		t.Fatalf("count = %d", o.Count(4, 4))
	}
}

// AddNumber must falsify exactly: all numbers at (i,j), number k in row i,
// column j and the surrounding sub-board — §3's four generators.
func TestAddNumberEliminations(t *testing.T) {
	b := NewBoard(3)
	o := NewOptions(3)
	i, j, k := 4, 7, 5
	b2, o2 := AddNumber(sp, b, o, i, j, k)
	if b2.Get(i, j) != k {
		t.Fatal("board not updated")
	}
	if b.Get(i, j) != 0 {
		t.Fatal("AddNumber mutated its input board")
	}
	if o.Count(i, j) != 9 {
		t.Fatal("AddNumber mutated its input options")
	}
	for x := 0; x < 9; x++ {
		for y := 0; y < 9; y++ {
			for num := 1; num <= 9; num++ {
				got := o2.Get(x, y, num)
				inCell := x == i && y == j
				inRow := x == i && num == k
				inCol := y == j && num == k
				inBox := x/3 == i/3 && y/3 == j/3 && num == k
				want := !(inCell || inRow || inCol || inBox)
				if got != want {
					t.Fatalf("opts[%d,%d,%d] = %v, want %v", x, y, num, got, want)
				}
			}
		}
	}
}

// addNumberDirect is AddNumber written as plain loops: the reference the
// with-loop version is tested against, and nothing else — what the solver
// runs is the with-loop.
func addNumberDirect(b *Board, o *Options, i, j, k int) (*Board, *Options) {
	N := b.N()
	n := b.n
	board := b.With(i, j, k)
	opts := o.Clone()
	data := opts.cube.Data()
	k0 := k - 1
	at := func(x, y, z int) int { return (x*N+y)*N + z }
	for z := 0; z < N; z++ {
		data[at(i, j, z)] = false
	}
	for y := 0; y < N; y++ {
		data[at(i, y, k0)] = false
	}
	for x := 0; x < N; x++ {
		data[at(x, j, k0)] = false
	}
	is, js := (i/n)*n, (j/n)*n
	for x := is; x < is+n; x++ {
		for y := js; y < js+n; y++ {
			data[at(x, y, k0)] = false
		}
	}
	return board, opts
}

// The with-loop implementation and the direct-loop implementation must
// agree on arbitrary placements (differential test).
func TestQuickAddNumberDifferential(t *testing.T) {
	f := func(iRaw, jRaw, kRaw uint8, seed int64) bool {
		i, j, k := int(iRaw%9), int(jRaw%9), int(kRaw%9)+1
		base := GenerateSolved(3, seed)
		// Derive a partially-filled board and its options.
		puzzle := base.Clone()
		for c := 0; c < 40; c++ {
			puzzle.cells.Data()[(c*7)%81] = 0
		}
		opts, _ := ComputeOpts(sp, puzzle)
		b1, o1 := AddNumber(sp, puzzle, opts, i, j, k)
		b2, o2 := addNumberDirect(puzzle, opts, i, j, k)
		return b1.Equal(b2) && o1.Equal(o2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// With-loop AddNumber must be identical under sequential and parallel pools.
func TestAddNumberPoolEquivalence(t *testing.T) {
	p2 := sched.NewWithGrain(2, 8)
	o := NewOptions(3)
	b := NewBoard(3)
	b1, o1 := AddNumber(sp, b, o, 3, 3, 7)
	b2, o2 := AddNumber(p2, b, o, 3, 3, 7)
	if !b1.Equal(b2) || !o1.Equal(o2) {
		t.Fatal("pool width changed with-loop semantics")
	}
}

func TestComputeOptsConsistency(t *testing.T) {
	opts, ok := ComputeOpts(sp, Easy())
	if !ok {
		t.Fatal("Easy must be consistent")
	}
	// Cell (0,2) is empty; 4 must be possible (it is in the solution).
	if !opts.Get(0, 2, 4) {
		t.Fatal("solution value eliminated")
	}
	// 5 is in row 0 already: impossible at (0,2).
	if opts.Get(0, 2, 5) {
		t.Fatal("row elimination missing")
	}
	// Inconsistent board: two 5s in one row.
	bad := Easy().With(0, 8, 5)
	if _, ok := ComputeOpts(sp, bad); ok {
		t.Fatal("inconsistency undetected")
	}
}

// computeOptsChained is ComputeOpts as the paper writes it, the reference
// the single with-loop is tested against: addNumber for every given in
// row-major order on a fresh cube, inconsistent when a given finds its own
// option already gone.
func computeOptsChained(p *sched.Pool, b *Board) (*Options, bool) {
	N := b.N()
	opts := NewOptions(b.n)
	consistent := true
	cur := NewBoard(b.n)
	for i := 0; i < N; i++ {
		for j := 0; j < N; j++ {
			k := b.Get(i, j)
			if k == 0 {
				continue
			}
			if !opts.Get(i, j, k) {
				consistent = false
			}
			cur, opts = AddNumber(p, cur, opts, i, j, k)
		}
	}
	return opts, consistent
}

func TestComputeOptsMatchesChained(t *testing.T) {
	// Every board on the sequential pool; every fifth also on one that cuts
	// each generator into chunks of an element (a goroutine start a chunk is
	// what the test's time goes to, under -race above all).
	wide := sched.NewWithGrain(4, 1)
	check := func(what string, b *Board, pools []*sched.Pool) {
		t.Helper()
		want, wantOK := computeOptsChained(sp, b)
		for _, p := range pools {
			got, gotOK := ComputeOpts(p, b)
			if gotOK != wantOK || !got.Equal(want) {
				t.Fatalf("%s, pool width %d: consistent %v, want %v; cubes equal %v\n%v",
					what, p.Width(), gotOK, wantOK, got.Equal(want), b)
			}
		}
	}
	rng := rand.New(rand.NewSource(23))
	for seed := int64(0); seed < 200; seed++ {
		n := 3
		if seed%10 == 9 {
			n = 2 + int(seed/10)%3 // 4x4, 9x9 and 16x16 boards
		}
		N := n * n
		b := GenerateSolved(n, seed)
		cells := b.cells.Data()
		for holes := rng.Intn(N*N + 1); holes > 0; holes-- {
			cells[rng.Intn(N*N)] = 0
		}
		pools := []*sched.Pool{sp}
		if seed%5 == 4 {
			pools = append(pools, wide)
		}
		check("generated board", b, pools)

		// Plant a number a second time in its row, its column and its
		// sub-board (off the row and the column), one at a time.
		i, j := rng.Intn(N), rng.Intn(N)
		v := 1 + rng.Intn(N)
		i2, j2 := (i+1+rng.Intn(N-1))%N, (j+1+rng.Intn(N-1))%N
		is, js := i/n*n, j/n*n
		bi, bj := is+(i-is+1+rng.Intn(n-1))%n, js+(j-js+1+rng.Intn(n-1))%n
		check("duplicate in a row", b.With(i, j, v).With(i, j2, v), pools)
		check("duplicate in a column", b.With(i, j, v).With(i2, j, v), pools)
		check("duplicate in a sub-board", b.With(i, j, v).With(bi, bj, v), pools)
	}
}

func TestIsStuckDetectsDeadEnd(t *testing.T) {
	b := Easy()
	opts, _ := ComputeOpts(sp, b)
	if IsStuck(b, opts) {
		t.Fatal("Easy is not stuck")
	}
	// Fill a row's remaining cells' options away: make cell (0,2)
	// impossible by placing 1,2,4,6,8,9 around it (leaving no number).
	// Cheaper: zero out its option row directly on a clone.
	o2 := opts.Clone()
	data := o2.cube.Data()
	for k := 0; k < 9; k++ {
		data[(0*9+2)*9+k] = false
	}
	if !IsStuck(b, o2) {
		t.Fatal("stuck state undetected")
	}
}

func TestFindMinTruesPrefersConstrainedCells(t *testing.T) {
	b := Easy()
	opts, _ := ComputeOpts(sp, b)
	i, j, ok := FindMinTrues(opts)
	if !ok {
		t.Fatal("no candidate found")
	}
	if b.Get(i, j) != 0 {
		t.Fatal("findMinTrues picked a filled cell")
	}
	min := opts.Count(i, j)
	for x := 0; x < 9; x++ {
		for y := 0; y < 9; y++ {
			if c := opts.Count(x, y); c > 0 && c < min {
				t.Fatalf("cell (%d,%d) has %d < %d options", x, y, c, min)
			}
		}
	}
}

func TestFindMinTruesExhausted(t *testing.T) {
	o := NewOptions(2)
	data := o.cube.Data()
	for i := range data {
		data[i] = false
	}
	if _, _, ok := FindMinTrues(o); ok {
		t.Fatal("exhausted options must report not-ok")
	}
}

// countDirect, isStuckDirect, isCompletedDirect and findMinTruesDirect are
// Count, §3's isStuck and isCompleted and §3/§5's findMinTrues as plain loops
// over the bools: the references the word-counting queries and the search's
// per-frame choice are held to, and nothing else.
func countDirect(o *Options, i, j int) int {
	c := 0
	for k := 1; k <= o.n*o.n; k++ {
		if o.Get(i, j, k) {
			c++
		}
	}
	return c
}

func isStuckDirect(b *Board, o *Options) bool {
	for at, v := range b.cells.Data() {
		if v == 0 && countDirect(o, at/b.N(), at%b.N()) == 0 {
			return true
		}
	}
	return false
}

func isCompletedDirect(b *Board) bool {
	for _, v := range b.cells.Data() {
		if v == 0 {
			return false
		}
	}
	return true
}

// findMinTruesDirect: the first position in row-major order with the fewest
// options among those with any; ok is false when none has one.
func findMinTruesDirect(o *Options) (i, j int, ok bool) {
	N := o.n * o.n
	best, bi, bj := N+1, -1, -1
	for at := 0; at < N*N; at++ {
		if c := countDirect(o, at/N, at%N); c > 0 && c < best {
			best, bi, bj = c, at/N, at%N
		}
	}
	return bi, bj, bi >= 0
}

// TestOptionQueriesMatchPlainLoops: Count, IsStuck and FindMinTrues answer
// what the plain loops answer on any pair — cubes of every density, filled
// cells that keep options, empty cells that have none — at sides 4, 9 and 16,
// and survey answers them for the empty cells.
func TestOptionQueriesMatchPlainLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for round := 0; round < 600; round++ {
		n := 2 + round%3
		N := n * n
		b, o := NewBoard(n), NewOptions(n)
		cells, cube := b.cells.Data(), o.cube.Data()
		filled, open := rng.Float64(), rng.Float64()
		for at := range cells {
			if rng.Float64() < filled {
				cells[at] = 1 + rng.Intn(N)
			}
		}
		for x := range cube {
			cube[x] = rng.Float64() < open
		}
		if round%4 == 0 { // a few cells at one option or none
			for c := rng.Intn(N); c >= 0; c-- {
				at := rng.Intn(N * N)
				clear(cube[at*N : (at+1)*N])
				if c%2 == 0 {
					cube[at*N+rng.Intn(N)] = true
				}
			}
		}
		for at := 0; at < N*N; at++ {
			if got, want := o.Count(at/N, at%N), countDirect(o, at/N, at%N); got != want {
				t.Fatalf("round %d: Count(%d, %d) = %d, want %d", round, at/N, at%N, got, want)
			}
		}
		if got, want := IsStuck(b, o), isStuckDirect(b, o); got != want {
			t.Fatalf("round %d: IsStuck = %v, want %v\n%v", round, got, want, b)
		}
		gi, gj, gok := FindMinTrues(o)
		if wi, wj, wok := findMinTruesDirect(o); gi != wi || gj != wj || gok != wok {
			t.Fatalf("round %d: FindMinTrues = (%d, %d, %v), want (%d, %d, %v)", round, gi, gj, gok, wi, wj, wok)
		}
		// survey reads the empty cells only: on a pair whose filled cells
		// keep options it picks the first empty cell with the fewest.
		best, wi, wj := N+1, 0, 0
		for at := 0; at < N*N; at++ {
			if c := countDirect(o, at/N, at%N); cells[at] == 0 && c < best {
				best, wi, wj = c, at/N, at%N
			}
		}
		si, sj, stuck, done := survey(b, o)
		if stuck != isStuckDirect(b, o) || done != isCompletedDirect(b) || (!stuck && !done && (si != wi || sj != wj)) {
			t.Fatalf("round %d: survey = (%d, %d, %v, %v), want (%d, %d, %v, %v)", round, si, sj, stuck, done, wi, wj, isStuckDirect(b, o), isCompletedDirect(b))
		}
	}
}

// searchStates calls visit with the pairs a search meets: Generate puzzles at
// sides 4, 9 and 16, their ComputeOpts cubes, then random placements of an
// open number at a random open cell — a copying AddNumber or one into a pair
// the walk alone holds, as solve's frames do — until the board is stuck or
// complete.  Random numbers go wrong, so stuck states are among them.
func searchStates(visit func(b *Board, o *Options)) {
	rng := rand.New(rand.NewSource(7))
	for seed := int64(1); seed <= 120; seed++ {
		n := 3
		if seed%6 == 0 {
			n = 2 + int(seed/6)%3
		}
		N := n * n
		b, _ := Generate(sp, n, seed, rng.Intn(N*N+1), false)
		o, _ := ComputeOpts(sp, b)
		for owned := false; ; owned = !owned {
			visit(b, o)
			var open [][3]int
			for at := 0; at < N*N; at++ {
				for k := 1; k <= N && b.Get(at/N, at%N) == 0; k++ {
					if o.Get(at/N, at%N, k) {
						open = append(open, [3]int{at / N, at % N, k})
					}
				}
			}
			if len(open) == 0 || isStuckDirect(b, o) {
				break
			}
			c := open[rng.Intn(len(open))]
			b, o = addNumber(sp, b, o, c[0], c[1], c[2], owned)
		}
	}
}

// TestSearchFrameChoiceMatchesPlainLoops: on every pair a search meets, the
// questions a frame of solve, SolveOneLevel and CountSolutions asks — stuck,
// completed, and which cell next — get the plain loops' answers, from
// IsStuck, IsCompleted and FindMinTrues one by one and from survey in its
// one pass.
func TestSearchFrameChoiceMatchesPlainLoops(t *testing.T) {
	var states, stucks int
	searchStates(func(b *Board, o *Options) {
		stuck, done := isStuckDirect(b, o), isCompletedDirect(b)
		states++
		if stuck {
			stucks++
		}
		if IsStuck(b, o) != stuck || b.IsCompleted() != done {
			t.Fatalf("IsStuck %v, IsCompleted %v; want %v, %v\n%v", IsStuck(b, o), b.IsCompleted(), stuck, done, b)
		}
		si, sj, sstuck, sdone := survey(b, o)
		if sstuck != stuck || sdone != done {
			t.Fatalf("survey: stuck %v, done %v; want %v, %v\n%v", sstuck, sdone, stuck, done, b)
		}
		if stuck || done {
			return
		}
		wi, wj, _ := findMinTruesDirect(o)
		if i, j, ok := FindMinTrues(o); !ok || i != wi || j != wj {
			t.Fatalf("FindMinTrues = (%d, %d, %v), want (%d, %d)\n%v", i, j, ok, wi, wj, b)
		}
		if si != wi || sj != wj {
			t.Fatalf("survey chose (%d, %d), want (%d, %d)\n%v", si, sj, wi, wj, b)
		}
	})
	if states < 1000 || stucks < 20 {
		t.Fatalf("%d search states, %d stuck; the walk no longer goes deep", states, stucks)
	}
}

// TestSearchStatesKeepNoOptionAtFilledCells: ComputeOpts leaves no option at
// a given, and AddNumber none at the cell it fills or at any filled before.
func TestSearchStatesKeepNoOptionAtFilledCells(t *testing.T) {
	searchStates(func(b *Board, o *Options) {
		N := b.N()
		for at, v := range b.cells.Data() {
			if v != 0 && countDirect(o, at/N, at%N) != 0 {
				t.Fatalf("filled cell (%d, %d) keeps %d options\n%v", at/N, at%N, countDirect(o, at/N, at%N), b)
			}
		}
	})
}

// TestBoolIsOneByte pins the layout the word view of the option cube
// (Options.bytes) relies on: a bool is one byte, 0 when false and 1 when
// true, however it was made, and the view reads each cell of the cube.
func TestBoolIsOneByte(t *testing.T) {
	if s := unsafe.Sizeof(true); s != 1 {
		t.Fatalf("a bool is %d bytes", s)
	}
	x, y := rand.Intn(2), rand.Intn(2)
	o := NewOptions(2)
	cube := o.cube.Data()
	for at, v := range []bool{false, true, x == y, x != y, !(x == y), x < 2 && y < 2} {
		cube[at] = v
	}
	for at, got := range o.bytes() {
		want := byte(0)
		if cube[at] {
			want = 1
		}
		if got != want {
			t.Fatalf("cube[%d] = %v is stored as %d", at, cube[at], got)
		}
	}
}
