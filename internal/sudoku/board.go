// Package sudoku implements the paper's case study (§3, §5): sudoku boards
// of size n²×n², the SaC-style solver functions (addNumber, findMinTrues,
// isStuck, isCompleted, solve, solveOneLevel), puzzle generation, and the
// three S-Net solver networks of Figures 1–3.
//
// Boards and option cubes are built on the SaC array substrate
// (internal/array); addNumber is the paper's modarray-with-loop verbatim, so
// its data parallelism scales with the scheduler pool exactly as the paper's
// "multi-threaded code generation" would.
package sudoku

import (
	"fmt"
	"strings"

	"repro/internal/array"
)

// Board is an n²×n² sudoku board; 0 denotes an empty cell.  Boards are
// immutable values in the SaC sense: all updates return fresh boards.
type Board struct {
	n     int // sub-board size (3 for the classic 9×9 game)
	cells *array.Array[int]
}

// NewBoard returns an empty board with sub-board size n (board side n²).
func NewBoard(n int) *Board {
	if n < 2 {
		panic("sudoku: sub-board size must be at least 2")
	}
	N := n * n
	return &Board{n: n, cells: array.New([]int{N, N}, 0)}
}

// FromGrid builds a board from a row-major grid; the side length must be a
// perfect square and every value in [0, side].
func FromGrid(grid [][]int) (*Board, error) {
	N := len(grid)
	n := intSqrt(N)
	if n < 2 || n*n != N {
		return nil, fmt.Errorf("sudoku: side %d is not a perfect square ≥ 4", N)
	}
	b := NewBoard(n)
	for i, row := range grid {
		if len(row) != N {
			return nil, fmt.Errorf("sudoku: row %d has %d cells, want %d", i, len(row), N)
		}
		for j, v := range row {
			if v < 0 || v > N {
				return nil, fmt.Errorf("sudoku: cell (%d,%d) value %d out of range", i, j, v)
			}
			b.cells.Set(v, i, j)
		}
	}
	return b, nil
}

// Parse reads a 9×9 board from the conventional 81-character single-line
// form, where digits are givens and '.' or '0' are empty cells.  Whitespace
// is ignored.
func Parse(s string) (*Board, error) {
	var cells []int
	for _, r := range s {
		switch {
		case r == '.':
			cells = append(cells, 0)
		case r >= '0' && r <= '9':
			cells = append(cells, int(r-'0'))
		case r == ' ' || r == '\n' || r == '\t' || r == '\r' || r == '|' || r == '-' || r == '+':
			// layout characters
		default:
			return nil, fmt.Errorf("sudoku: unexpected character %q", string(r))
		}
	}
	if len(cells) != 81 {
		return nil, fmt.Errorf("sudoku: got %d cells, want 81", len(cells))
	}
	b := NewBoard(3)
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			b.cells.Set(cells[i*9+j], i, j)
		}
	}
	return b, nil
}

// MustParse is Parse panicking on error, for puzzle literals.
func MustParse(s string) *Board {
	b, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return b
}

func intSqrt(x int) int {
	r := 0
	for (r+1)*(r+1) <= x {
		r++
	}
	return r
}

// N returns the board side length (n²).
func (b *Board) N() int { return b.n * b.n }

// SubSize returns the sub-board size n.
func (b *Board) SubSize() int { return b.n }

// Cells exposes the underlying array (read-only by convention).
func (b *Board) Cells() *array.Array[int] { return b.cells }

// Get returns the value at (i, j); 0 means empty.
func (b *Board) Get(i, j int) int { return b.cells.At(i, j) }

// With returns a copy of the board with (i, j) set to v — the functional
// update `board[i,j] = k` of the paper's addNumber.
func (b *Board) With(i, j, v int) *Board {
	return &Board{n: b.n, cells: b.cells.WithAt(v, i, j)}
}

// Clone returns a deep copy.
func (b *Board) Clone() *Board { return &Board{n: b.n, cells: b.cells.Clone()} }

// Equal reports equality of size and contents.
func (b *Board) Equal(o *Board) bool {
	return b.n == o.n && array.Equal(b.cells, o.cells)
}

// IsCompleted reports whether every cell is filled (§3's isCompleted).
func (b *Board) IsCompleted() bool {
	for _, v := range b.cells.Data() {
		if v == 0 {
			return false
		}
	}
	return true
}

// CountFilled returns the number of non-empty cells — the <level> tag of
// the Fig. 3 network.
func (b *Board) CountFilled() int {
	c := 0
	for _, v := range b.cells.Data() {
		if v != 0 {
			c++
		}
	}
	return c
}

// FindFirst returns the first empty position in row-major order (§3's
// findFirst); ok is false when the board is complete.
func (b *Board) FindFirst() (i, j int, ok bool) {
	N := b.N()
	for idx, v := range b.cells.Data() {
		if v == 0 {
			return idx / N, idx % N, true
		}
	}
	return 0, 0, false
}

// Valid reports whether the filled cells violate no sudoku rule: each row,
// column and sub-board contains no duplicate number.
func (b *Board) Valid() bool {
	N, n := b.N(), b.n
	cells := b.cells.Data()
	var small [32]bool // boards up to 25x25 are checked without allocating
	seen := small[:min(N+1, len(small))]
	if len(seen) <= N {
		seen = make([]bool, N+1)
	}
	for u := 0; u < N; u++ { // row u, column u, sub-board u
		r0, c0 := u/n*n, u%n*n
		for unit := 0; unit < 3; unit++ {
			clear(seen)
			for q := 0; q < N; q++ {
				at := [3]int{u*N + q, q*N + u, (r0+q/n)*N + c0 + q%n}[unit]
				if v := cells[at]; v != 0 {
					if seen[v] {
						return false
					}
					seen[v] = true
				}
			}
		}
	}
	return true
}

// IsSolved reports whether the board is complete and valid.
func (b *Board) IsSolved() bool { return b.IsCompleted() && b.Valid() }

// Extends reports whether b agrees with the given puzzle on every filled
// cell of the puzzle (b is a completion of it).
func (b *Board) Extends(puzzle *Board) bool {
	if b.n != puzzle.n {
		return false
	}
	pd, bd := puzzle.cells.Data(), b.cells.Data()
	for i, v := range pd {
		if v != 0 && bd[i] != v {
			return false
		}
	}
	return true
}

// String renders the board with sub-board rules.
func (b *Board) String() string {
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
			v := b.Get(i, j)
			if v == 0 {
				sb.WriteString("  .")
			} else {
				fmt.Fprintf(&sb, "%3d", v)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
