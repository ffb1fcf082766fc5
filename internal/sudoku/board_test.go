package sudoku

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sched"
)

var sp = sched.New(1)

func TestParseAndGet(t *testing.T) {
	b := Easy()
	if b.N() != 9 || b.SubSize() != 3 {
		t.Fatalf("N=%d n=%d", b.N(), b.SubSize())
	}
	if b.Get(0, 0) != 5 || b.Get(0, 1) != 3 || b.Get(8, 8) != 9 {
		t.Fatal("parse broken")
	}
	if b.Get(0, 2) != 0 {
		t.Fatal("empty cell broken")
	}
}

func TestParseWithDotsAndLayout(t *testing.T) {
	b, err := Parse(`
		53..7....
		6..195...
		.98....6.
		8...6...3
		4..8.3..1
		7...2...6
		.6....28.
		...419..5
		....8..79`)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Equal(Easy()) {
		t.Fatal("dot form disagrees with zero form")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("123"); err == nil {
		t.Fatal("short input must fail")
	}
	if _, err := Parse(strings.Repeat("x", 81)); err == nil {
		t.Fatal("bad character must fail")
	}
}

func TestFromGrid(t *testing.T) {
	g := make([][]int, 4)
	for i := range g {
		g[i] = make([]int, 4)
	}
	g[0][0] = 1
	b, err := FromGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	if b.SubSize() != 2 || b.Get(0, 0) != 1 {
		t.Fatal("FromGrid broken")
	}
	if _, err := FromGrid(make([][]int, 5)); err == nil {
		t.Fatal("non-square side must fail")
	}
	g[0][0] = 9
	if _, err := FromGrid(g); err == nil {
		t.Fatal("out-of-range value must fail")
	}
	g[0][0] = 1
	g[1] = g[1][:2]
	if _, err := FromGrid(g); err == nil {
		t.Fatal("ragged grid must fail")
	}
}

func TestWithIsFunctional(t *testing.T) {
	b := NewBoard(3)
	b2 := b.With(4, 5, 7)
	if b.Get(4, 5) != 0 || b2.Get(4, 5) != 7 {
		t.Fatal("With must not mutate")
	}
}

func TestCompletedAndCounts(t *testing.T) {
	if Easy().IsCompleted() {
		t.Fatal("puzzle is not complete")
	}
	if !EasySolution().IsCompleted() {
		t.Fatal("solution is complete")
	}
	if Easy().CountFilled() != 30 {
		t.Fatalf("Easy has %d givens", Easy().CountFilled())
	}
	if EasySolution().CountFilled() != 81 {
		t.Fatal("solution filled count")
	}
}

func TestValidDetectsViolations(t *testing.T) {
	if !Easy().Valid() || !EasySolution().Valid() {
		t.Fatal("valid boards reported invalid")
	}
	if !EasySolution().IsSolved() {
		t.Fatal("solution must be solved")
	}
	// duplicate in row
	if Easy().With(0, 8, 5).Valid() {
		t.Fatal("row violation undetected")
	}
	// duplicate in column
	if Easy().With(8, 0, 5).Valid() {
		t.Fatal("column violation undetected")
	}
	// duplicate in sub-board
	if Easy().With(1, 1, 5).Valid() {
		t.Fatal("sub-board violation undetected")
	}
}

func TestExtends(t *testing.T) {
	if !EasySolution().Extends(Easy()) {
		t.Fatal("solution must extend its puzzle")
	}
	if EasySolution().Extends(Hard()) {
		t.Fatal("wrong-puzzle extension")
	}
	if Easy().Extends(NewBoard(2)) {
		t.Fatal("size mismatch must not extend")
	}
}

func TestBoardString(t *testing.T) {
	s := Easy().String()
	if !strings.Contains(s, "5") || !strings.Contains(s, ".") || !strings.Contains(s, "|") {
		t.Fatalf("rendering: %q", s)
	}
}

// TestBoardStringMatchesFprintf holds Board.String to the formatter it
// replaced, one fmt.Fprintf("%3d") per cell, byte for byte: on the shipped
// puzzles, on a 16×16 board and on cell values of two digits.
func TestBoardStringMatchesFprintf(t *testing.T) {
	fprintf := func(b *Board) string {
		N := b.N()
		var sb strings.Builder
		for i := 0; i < N; i++ {
			if i > 0 && i%b.n == 0 {
				sb.WriteString(strings.Repeat("-", 3*N+b.n-1))
				sb.WriteByte('\n')
			}
			for j := 0; j < N; j++ {
				if j > 0 && j%b.n == 0 {
					sb.WriteByte('|')
				}
				if v := b.Get(i, j); v == 0 {
					sb.WriteString("  .")
				} else {
					fmt.Fprintf(&sb, "%3d", v)
				}
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	big := NewBoard(4)
	for k := 0; k < 16; k++ {
		big = big.With(k, (k*5)%16, k+1)
	}
	for name, b := range map[string]*Board{"easy": Easy(), "hard": Hard(), "16x16": big, "solved": EasySolution()} {
		if got, want := b.String(), fprintf(b); got != want {
			t.Errorf("%s: Board.String differs from the Fprintf rendering:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

func TestCloneEqualIndependent(t *testing.T) {
	b := Easy()
	c := b.Clone()
	if !b.Equal(c) {
		t.Fatal("clone unequal")
	}
	c.cells.Set(9, 0, 2)
	if b.Equal(c) || b.Get(0, 2) != 0 {
		t.Fatal("clone aliased")
	}
}

func TestNewBoardPanicsOnTinySubSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBoard(1) must panic")
		}
	}()
	NewBoard(1)
}

// Valid keeps its scratch on the stack up to a side of 31 and makes it past
// that; both have to find the same duplicates.
func TestValidBothSidesOfTheStackScratch(t *testing.T) {
	for _, n := range []int{5, 6} {
		b := GenerateSolved(n, int64(n))
		if !b.Valid() {
			t.Fatalf("n=%d: a generated solution reads invalid", n)
		}
		N := n * n
		for _, c := range [][2]int{{0, N - 1}, {N - 1, 0}, {1, 1}} { // row 0, column 0, sub-board 0
			if dup := b.With(c[0], c[1], b.Get(0, 0)); dup.Valid() {
				t.Fatalf("n=%d: %d planted at %v beside the one at (0,0) reads valid", n, b.Get(0, 0), c)
			}
		}
	}
}
