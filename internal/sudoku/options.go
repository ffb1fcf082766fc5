package sudoku

import (
	"slices"

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
	return addNumber(p, b, o, i, j, k, false)
}

// addNumber is AddNumber; with owned, b and o are the caller's alone and are
// written in place and returned, as SaC updates a modarray nobody else holds.
func addNumber(p *sched.Pool, b *Board, o *Options, i, j, k int, owned bool) (*Board, *Options) {
	if !owned {
		b, o = b.Clone(), o.Clone()
	}
	b.cells.Set(k, i, j)
	N, n := b.N(), b.n
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
	array.ModarrayOwned(p, o.cube,
		array.GenClosed(bd[0][:], bd[1][:], falseBody),
		array.GenClosed(bd[2][:], bd[3][:], falseBody),
		array.GenClosed(bd[4][:], bd[5][:], falseBody),
		array.GenClosed(bd[6][:], bd[7][:], falseBody),
	)
	return b, o
}

// ComputeOpts derives the option cube for a board by adding every given
// number to a fresh all-true cube — the computeOpts box of Fig. 1.  The
// boolean result is false when a given number was already impossible (the
// puzzle is inconsistent).
//
// The paper writes it as a loop of addNumber calls.  Nobody but that loop
// holds the cube it threads through them — the case in which SaC's reference
// counting lets every addNumber update in place — so what a SaC compiler
// makes of the loop is one pass of writes over one cube, and that is what
// this is: a single modarray-with-loop over the all-true cube with the four
// generators of every given, in the order the loop would run them.  A given
// finds its option already gone exactly when an earlier given of the same
// number shares its row, column or sub-board (the "this cell" generator of
// another given never reaches it), which is what Valid reports of the board.
func ComputeOpts(p *sched.Pool, b *Board) (*Options, bool) {
	N, n := b.N(), b.n
	falseBody := func([]int) bool { return false }
	givens := b.CountFilled()
	bd := make([]int, 0, givens*4*2*3) // the bounds share one array, as in AddNumber
	gens := make([]array.Gen[bool], 0, givens*4)
	for at, k := range b.cells.Data() {
		if k == 0 {
			continue
		}
		i, j, k0 := at/N, at%N, k-1
		is, js := (i/n)*n, (j/n)*n
		bd = append(bd,
			i, j, 0, i, j, N-1,
			i, 0, k0, i, N-1, k0,
			0, j, k0, N-1, j, k0,
			is, js, k0, is+n-1, js+n-1, k0)
		for c := bd[len(bd)-24:]; len(c) > 0; c = c[6:] {
			gens = append(gens, array.GenClosed(c[0:3], c[3:6], falseBody))
		}
	}
	opts := NewOptions(n) // nobody else holds it: written in place, not copied
	array.ModarrayOwned(p, opts.cube, gens...)
	return opts, b.Valid()
}

// IsStuck reports whether some empty cell has no options left (§3's
// isStuck): the search cannot proceed from this board.
func IsStuck(b *Board, o *Options) bool {
	N := b.N()
	cube := o.cube.Data()
	for at, v := range b.cells.Data() {
		if v == 0 && !slices.Contains(cube[at*N:(at+1)*N], true) {
			return true
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
