package sudoku

import (
	"encoding/binary"
	"math/bits"
	"unsafe"

	"repro/internal/array"
	"repro/internal/sched"
)

// Options is the paper's bool[N,N,N] cube: Options[i,j,k] reports whether
// number k+1 may still be placed at position (i,j).  Like the board it is a
// functional value; AddNumber returns fresh options.
type Options struct {
	n    int
	cube *array.Array[bool]
	// bd holds the bounds of the generators addNumber and ComputeOpts run:
	// they escape with their Body (the pool may hand it to other
	// goroutines), so they live where the options already are.
	bd [8][3]int
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
	return countAt(o.bytes(), (i*N+j)*N, N)
}

// bytes views the cube as bytes, 0 or 1 each under gc (TestBoolIsOneByte):
// the module's one use of unsafe (TestUnsafeStaysInOptions).
func (o *Options) bytes() []byte {
	data := o.cube.Data()
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), len(data))
}

// countAt counts the options in c[at:at+N], eight a word.
func countAt(c []byte, at, N int) int {
	n, end := 0, at+N
	for ; at+8 <= end; at += 8 {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(c[at:]))
	}
	for _, v := range c[at:end] {
		n += int(v)
	}
	return n
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
	o.bd[0], o.bd[1] = [3]int{i, j, 0}, [3]int{i, j, N - 1}
	o.bd[2], o.bd[3] = [3]int{i, 0, k0}, [3]int{i, N - 1, k0}
	o.bd[4], o.bd[5] = [3]int{0, j, k0}, [3]int{N - 1, j, k0}
	o.bd[6], o.bd[7] = [3]int{is, js, k0}, [3]int{is + n - 1, js + n - 1, k0}
	array.ModarrayOwned(p, o.cube,
		array.Gen[bool]{Lower: o.bd[0][:], Upper: o.bd[1][:], IncUpper: true, Body: falseBody},
		array.Gen[bool]{Lower: o.bd[2][:], Upper: o.bd[3][:], IncUpper: true, Body: falseBody},
		array.Gen[bool]{Lower: o.bd[4][:], Upper: o.bd[5][:], IncUpper: true, Body: falseBody},
		array.Gen[bool]{Lower: o.bd[6][:], Upper: o.bd[7][:], IncUpper: true, Body: falseBody},
	)
	return b, o
}

// ComputeOpts derives the option cube for a board by adding every given
// number to a fresh all-true cube — the computeOpts box of Fig. 1.  The
// boolean result is false when a given number was already impossible (the
// puzzle is inconsistent).
//
// The paper writes it as a loop of addNumber calls on an all-true cube.  What
// that loop leaves is false exactly where the cell is given or its number is
// given in the cell's row, column or sub-board, so this builds the cube as a
// single genarray-with-loop whose one generator is true everywhere else; one
// pass over the givens marks the three units.  A given finds its option
// already gone exactly when an earlier given of the same number shares its
// row, column or sub-board (addNumber's "this cell" generator of another
// given never reaches it), which is what Valid reports of the board.
func ComputeOpts(p *sched.Pool, b *Board) (*Options, bool) {
	N, n := b.N(), b.n
	cells := b.cells.Data()
	// used[u*N*N + x*N + k0]: number k0+1 is given in unit x of kind u (a row,
	// a column, a sub-board).  A value outside 1..N marks nothing.
	used := make([]bool, 3*N*N)
	for at, v := range cells {
		if v < 1 || v > N {
			continue
		}
		i, j, k0 := at/N, at%N, v-1
		used[i*N+k0] = true
		used[(N+j)*N+k0] = true
		used[(2*N+i/n*n+j/n)*N+k0] = true
	}
	open := func(iv []int) bool {
		i, j, k0 := iv[0], iv[1], iv[2]
		return cells[i*N+j] == 0 && !used[i*N+k0] && !used[(N+j)*N+k0] && !used[(2*N+i/n*n+j/n)*N+k0]
	}
	o := &Options{n: n}
	o.bd[1] = [3]int{N, N, N} // the bounds live in the options, as in addNumber
	o.cube = array.Genarray(p, o.bd[1][:], false, array.GenHalfOpen(o.bd[0][:], o.bd[1][:], open))
	return o, b.Valid()
}

// IsStuck reports whether some empty cell has no options left (§3's
// isStuck): the search cannot proceed from this board.
func IsStuck(b *Board, o *Options) bool {
	_, _, stuck, _ := survey(b, o)
	return stuck
}

// survey asks a search frame's three questions in one pass over the empty
// cells: stuck, some empty cell has no option left (isStuck); done, there is
// none (isCompleted); otherwise (i, j) is the first empty cell in row-major
// order with the fewest options.  That is findMinTrues' choice wherever no
// filled cell keeps an option, which ComputeOpts and AddNumber establish and
// keep; on any other pair survey still picks an empty cell.
func survey(b *Board, o *Options) (i, j int, stuck, done bool) {
	N, c := b.N(), o.bytes()
	best := N + 1
	for at, v := range b.cells.Data() {
		if v != 0 {
			continue
		}
		if n := countAt(c, at*N, N); n == 0 {
			return 0, 0, true, false
		} else if n < best {
			best, i, j = n, at/N, at%N
		}
	}
	return i, j, false, best > N
}

// FindMinTrues selects the position with the minimum positive number of
// options left (§3/§5's findMinTrues): positions with zero options are
// filled cells (or stuck cells, which isStuck rules out beforehand).
// ok is false when no position has any option left.
func FindMinTrues(o *Options) (i, j int, ok bool) {
	N, c := o.n*o.n, o.bytes()
	best, i, j := N+1, -1, -1
	for at := 0; at < N*N && best > 1; at++ {
		if n := countAt(c, at*N, N); n > 0 && n < best {
			best, i, j = n, at/N, at%N
		}
	}
	return i, j, i >= 0
}
