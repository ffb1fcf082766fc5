package sudoku

import (
	"math/rand"
	"testing"
	"testing/quick"

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
