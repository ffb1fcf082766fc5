package sudoku

import (
	"repro/internal/array"
	"repro/internal/sched"
)

// Options is the paper's bool[N,N,N] cube: Options[i,j,k] reports whether
// number k+1 may still be placed at position (i,j).  Like the board it is a
// functional value; AddNumber returns fresh options.
type Options struct {
	n    int
	cube *array.Array[bool]
}

// NewOptions returns the all-true option cube (§3: "We start out from an
// array containing true values only").
func NewOptions(n int) *Options {
	N := n * n
	return &Options{n: n, cube: array.New([]int{N, N, N}, true)}
}

// Cube exposes the underlying array (read-only by convention).
func (o *Options) Cube() *array.Array[bool] { return o.cube }

// Get reports whether number k (1-based) is still possible at (i, j).
func (o *Options) Get(i, j, k int) bool { return o.cube.At(i, j, k-1) }

// Count returns the number of options left at (i, j).
func (o *Options) Count(i, j int) int {
	N := o.n * o.n
	data := o.cube.Data()
	base := (i*N + j) * N
	c := 0
	for _, v := range data[base : base+N] {
		if v {
			c++
		}
	}
	return c
}

// Clone returns a deep copy.
func (o *Options) Clone() *Options { return &Options{n: o.n, cube: o.cube.Clone()} }

// Equal reports equality.
func (o *Options) Equal(p *Options) bool { return o.n == p.n && array.Equal(o.cube, p.cube) }

// AddNumber places number k (1-based) at position (i, j): it returns the
// updated board and options.  This is the paper's §3 addNumber function,
// with the option update expressed as the same four-generator
// modarray-with-loop:
//
//	opts = with {
//	    ([i,j,0]   <= iv <= [i,j,N-1])        : false;   // this cell
//	    ([i,0,k]   <= iv <= [i,N-1,k])        : false;   // row i
//	    ([0,j,k]   <= iv <= [N-1,j,k])        : false;   // column j
//	    ([is,js,k] <= iv <= [is+n-1,js+n-1,k]): false;   // sub-board
//	} : modarray( opts);
//
// The with-loop runs data-parallel on pool p.
func AddNumber(p *sched.Pool, b *Board, o *Options, i, j, k int) (*Board, *Options) {
	N := b.N()
	n := b.n
	board := b.With(i, j, k)
	k0 := k - 1
	is, js := (i/n)*n, (j/n)*n
	falseBody := func([]int) bool { return false }
	// A generator's bounds escape with its Body (the pool may hand the
	// body to other goroutines), so the eight of them share one array:
	// one allocation a call where eight literals are eight.
	bd := [...][3]int{
		{i, j, 0}, {i, j, N - 1},
		{i, 0, k0}, {i, N - 1, k0},
		{0, j, k0}, {N - 1, j, k0},
		{is, js, k0}, {is + n - 1, js + n - 1, k0},
	}
	cube := array.Modarray(p, o.cube,
		array.GenClosed(bd[0][:], bd[1][:], falseBody),
		array.GenClosed(bd[2][:], bd[3][:], falseBody),
		array.GenClosed(bd[4][:], bd[5][:], falseBody),
		array.GenClosed(bd[6][:], bd[7][:], falseBody),
	)
	return board, &Options{n: o.n, cube: cube}
}

// ComputeOpts derives the option cube for a board by adding every given
// number to a fresh all-true cube — the computeOpts box of Fig. 1.  The
// boolean result is false when a given number was already impossible (the
// puzzle is inconsistent).
func ComputeOpts(p *sched.Pool, b *Board) (*Options, bool) {
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

// IsStuck reports whether some empty cell has no options left (§3's
// isStuck): the search cannot proceed from this board.
func IsStuck(b *Board, o *Options) bool {
	N := b.N()
	for i := 0; i < N; i++ {
		for j := 0; j < N; j++ {
			if b.Get(i, j) == 0 && o.Count(i, j) == 0 {
				return true
			}
		}
	}
	return false
}

// FindMinTrues selects the position with the minimum positive number of
// options left (§3/§5's findMinTrues): positions with zero options are
// filled cells (or stuck cells, which isStuck rules out beforehand).
// ok is false when no position has any option left.
func FindMinTrues(o *Options) (i, j int, ok bool) {
	N := o.n * o.n
	best := N + 1
	bi, bj := -1, -1
	for x := 0; x < N; x++ {
		for y := 0; y < N; y++ {
			c := o.Count(x, y)
			if c > 0 && c < best {
				best, bi, bj = c, x, y
				if c == 1 {
					return bi, bj, true
				}
			}
		}
	}
	return bi, bj, bi >= 0
}
