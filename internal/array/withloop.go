package array

import (
	"context"
	"errors"

	"repro/internal/sched"
)

// Gen describes one with-loop generator: a rectangular (optionally strided)
// index set together with the expression computed for each index.
//
// The paper's generator forms are
//
//	( lower <= iv <  upper ) : expr;
//	( lower <= iv <= upper ) : expr;
//
// which correspond to IncUpper false/true.  Full SaC additionally allows an
// exclusive lower bound and step/width grids; both are supported here for
// completeness (Step nil means dense).
type Gen[T any] struct {
	Lower, Upper []int
	ExclLower    bool  // true for "lower < iv"
	IncUpper     bool  // true for "iv <= upper"
	Step, Width  []int // optional grid filter: (iv-lower) mod step < width
	// Body computes the element at iv.  It must be pure, and it must
	// neither retain nor modify iv: the engine steps one index vector in
	// place from element to element, so a Body that wrote to it would
	// steer the walk — and one vector serves every generator of a with-loop
	// that runs on the caller's goroutine, so a retained iv is not even a
	// record of where its own generator ended.
	Body func(iv []int) T
}

// GenHalfOpen returns the common generator form lower <= iv < upper.
func GenHalfOpen[T any](lower, upper []int, body func(iv []int) T) Gen[T] {
	return Gen[T]{Lower: lower, Upper: upper, Body: body}
}

// GenClosed returns the inclusive generator form lower <= iv <= upper used
// throughout the paper's addNumber (§3).
func GenClosed[T any](lower, upper []int, body func(iv []int) T) Gen[T] {
	return Gen[T]{Lower: lower, Upper: upper, IncUpper: true, Body: body}
}

// checkGrid panics unless Step and Width, one of them set, fit the rank and
// each other.  Like Offset it formats copies, so that a caller's literals
// need not escape.
func (g *Gen[T]) checkGrid(rank int) {
	if g.Step == nil {
		panic(shapeErrf("withloop", "width %v without a step", cloneInts(g.Width)))
	}
	if len(g.Step) != rank || (g.Width != nil && len(g.Width) != rank) {
		panic(shapeErrf("withloop", "step/width rank mismatch (rank %d, step %v, width %v)", rank, cloneInts(g.Step), cloneInts(g.Width)))
	}
	for d, s := range g.Step {
		if s < 1 {
			panic(shapeErrf("withloop", "step must be >= 1, got %v", cloneInts(g.Step)))
		}
		if g.Width != nil && (g.Width[d] < 1 || g.Width[d] > s) {
			panic(shapeErrf("withloop", "width must be in [1, step], got step %v width %v", cloneInts(g.Step), cloneInts(g.Width)))
		}
	}
}

// Genarray evaluates a genarray-with-loop: an array of the given shape whose
// elements are def except where covered by a generator.  Generators are
// applied in order, so on overlap later generators win (§2 of the paper).
// Each generator's index set is evaluated data-parallel on pool p; the Body
// functions must therefore be pure (thread-safe).  The iv slice passed to
// Body is reused between calls and between generators and must be neither
// retained nor modified (see Gen.Body).
func Genarray[T any](p *sched.Pool, shape []int, def T, gens ...Gen[T]) *Array[T] {
	return ModarrayOwned(p, New(shape, def), gens...)
}

// Modarray evaluates a modarray-with-loop: a copy of src with the
// generator-covered elements replaced (§2 of the paper).
func Modarray[T any](p *sched.Pool, src *Array[T], gens ...Gen[T]) *Array[T] {
	return ModarrayOwned(p, src.Clone(), gens...)
}

// ModarrayOwned is Modarray writing the generators, in order, into res itself
// — an array nobody but its caller holds, which SaC's reference counting lets
// a modarray reuse — and returning it.  Indices outside res's shape are
// skipped.  The generators that run inline share the index vector res holds
// for them, so that they allocate nothing up to rank fixedRank.
func ModarrayOwned[T any](p *sched.Pool, res *Array[T], gens ...Gen[T]) *Array[T] {
	rank := res.Dim()
	var w walk
	iv := res.iv[:min(rank, fixedRank)] // above fixedRank, made on first use
	for i := range gens {
		g := &gens[i]
		if len(g.Lower) != rank {
			panic(shapeErrf("withloop", "generator rank %d does not match result rank %d", len(g.Lower), rank))
		}
		switch {
		case !g.layout(&w, res.shape): // empty generator
		case rank == 0:
			// Degenerate scalar generator covers the single element.
			res.data[0] = g.Body(nil)
		case runsInline(p, w.total):
			if len(iv) != rank {
				iv = make([]int, rank)
			}
			writeRows(res, g, &w, iv, 0, w.total)
		default:
			cg, cw := *g, w
			rethrow(p.For(context.Background(), w.total, func(lin0, lin1 int) {
				g, w := cg, cw
				writeRows(res, &g, &w, make([]int, rank), lin0, lin1)
			}))
		}
	}
	return res
}

// Fold evaluates a fold-with-loop: the Body values of every generator index
// are folded with op starting from neutral.  op must be associative with
// neutral as identity; the fold is evaluated in deterministic (row-major,
// generator order) combination order, so associative-but-non-commutative
// operators still match the sequential fold.
func Fold[T any](p *sched.Pool, neutral T, op func(a, b T) T, gens ...Gen[T]) T {
	acc := neutral
	var w walk
	var iv []int // shared as in ModarrayOwned, but a fold's generators may differ in rank
	for i := range gens {
		g := &gens[i]
		switch {
		case !g.layout(&w, nil): // empty generator
		case w.rank == 0:
			acc = op(acc, g.Body(nil))
		case runsInline(p, w.total):
			if len(iv) != w.rank {
				iv = make([]int, w.rank)
			}
			acc = op(acc, foldRows(g, &w, iv, 0, w.total, neutral, op))
		default:
			cg, cw := *g, w
			part, err := sched.Reduce(p, context.Background(), w.total, neutral, func(lin0, lin1 int, a T) T {
				g, w := cg, cw
				return foldRows(&g, &w, make([]int, w.rank), lin0, lin1, a, op)
			}, op)
			rethrow(err)
			acc = op(acc, part)
		}
	}
	return acc
}

// How a with-loop runs.  A generator is laid out once as a walk: per
// dimension its lower and upper bound, intersected with the result's index
// space when there is one, and the dimension's stride in the result.  The
// box's row-major positions 0..total are what the pool cuts into chunks.  A
// chunk turns its first position into an index vector and a result offset
// (its only divisions, none at the origin where every inline generator
// starts) and from there walks rows like an odometer.  A row runs along the
// walk's axis, the innermost dimension of extent above one, so a column is
// one row: the axis index advances by one and the offset by the axis's
// stride.  At a row's end the indices wrap from the axis out, each wrap
// moving the offset by the strides it touches.  writeRows and foldRows are
// the two loops over that walk.

// runsInline reports whether the pool would run a loop of n positions as one
// chunk on the caller's goroutine — the condition Pool.For and sched.Reduce
// apply.  Such a loop calls its kernel directly: no closure to escape, no
// recover, and a Body panic simply propagates.
func runsInline(p *sched.Pool, n int) bool { return p.Width() == 1 || n <= p.Grain() }

// fixedRank is the rank up to which a walk keeps its bounds and strides, and
// an Array the index vector of its inline with-loops, in fixed storage: the
// ranks this repository uses (boards 2, option cubes 3) allocate no layout,
// and a walk fits the 128 B a chunk's closure holds a copy of by value.  A
// higher rank pays one make per generator and one per inline with-loop.
const fixedRank = 3

// walk is one generator's index box laid out for the loops.  Its dims are,
// per dimension, the first index, the index past the last and the stride in
// the result (0 for a fold, which has no result to address).
type walk struct {
	rank, total int // total is 0 for an empty box
	axis        int // the innermost dimension whose extent is above one, else 0
	fixed       [3 * fixedRank]int
	spill       []int // holds the dims instead of fixed when rank > fixedRank
}

func (w *walk) dims() (lo, hi, str []int) {
	b, r := w.fixed[:], w.rank
	if r > fixedRank {
		b = w.spill
	}
	return b[:r], b[r : 2*r], b[2*r : 3*r]
}

// layout checks g and lays out its index box in w, clamped to shape unless
// shape is nil (a fold), and reports whether the box holds an index.
func (g *Gen[T]) layout(w *walk, shape []int) bool {
	rank := len(g.Lower)
	w.rank, w.total, w.axis = rank, 0, 0
	if len(g.Upper) != rank {
		panic(shapeErrf("withloop", "generator bounds %v and %v differ in length", cloneInts(g.Lower), cloneInts(g.Upper)))
	}
	if g.Step != nil || g.Width != nil {
		g.checkGrid(rank)
	}
	if rank > fixedRank {
		w.spill = make([]int, 3*rank)
	}
	lo, hi, str := w.dims()
	dl, dh := 0, 0 // what ExclLower and IncUpper add to the bounds
	if g.ExclLower {
		dl = 1
	}
	if g.IncUpper {
		dh = 1
	}
	total, stride := 1, 0 // a fold's strides stay 0
	if shape != nil {
		stride = 1
	}
	for d := rank - 1; d >= 0; d-- {
		l, h := g.Lower[d]+dl, g.Upper[d]+dh
		str[d] = stride
		if shape != nil {
			// A lower bound below zero is cut, not shifted: the grid
			// stays anchored at the declared bound (gridHas).
			l, h = max(l, 0), min(h, shape[d])
			stride *= shape[d]
		}
		if h <= l {
			return false
		}
		lo[d], hi[d] = l, h
		total *= h - l
		if w.axis == 0 && h-l > 1 {
			w.axis = d
		}
	}
	w.total = total
	return true
}

// seek sets iv to the index at the box's position lin and returns its offset
// in the result.  These are a chunk's only divisions, none at the origin,
// where every inline generator starts.
func (w *walk) seek(iv []int, lin int) (off int) {
	lo, hi, str := w.dims()
	for d := w.rank - 1; d >= 0; d-- {
		iv[d] = lo[d]
		if lin != 0 {
			iv[d] += lin % (hi[d] - lo[d])
			lin /= hi[d] - lo[d]
		}
		off += iv[d] * str[d]
	}
	return off
}

// gridHas reports whether iv lies on g's step/width grid, which is anchored
// at the declared lower bound.  Every index a walk visits is at or above it.
func (g *Gen[T]) gridHas(iv []int) bool {
	for d, i := range iv {
		w := 1
		if g.Width != nil {
			w = g.Width[d]
		}
		if (i-g.Lower[d])%g.Step[d] >= w {
			return false
		}
	}
	return true
}

// writeRows stores g's values at the box's positions lin0..lin1 into res,
// stepping iv, from which the caller reads nothing.  A Body call clobbers
// every register, so a row holds only its step in a local and reads the
// Body, the data, the grid test and the dims where it uses them: held in
// locals across the row, each would be reloaded at every element.
func writeRows[T any](res *Array[T], g *Gen[T], w *walk, iv []int, lin0, lin1 int) {
	off := w.seek(iv, lin0)
	ax := w.axis
	for left := lin1 - lin0; ; {
		_, hi, str := w.dims()
		n := min(hi[ax]-iv[ax], left)
		left -= n
		for step := str[ax]; n > 0; n, off = n-1, off+step {
			if g.Step == nil || g.gridHas(iv) {
				res.data[off] = g.Body(iv)
			}
			iv[ax]++
		}
		if left == 0 {
			return
		}
		lo, hi, str := w.dims()
		for d := ax; d > 0 && iv[d] == hi[d]; d-- {
			iv[d] = lo[d]
			iv[d-1]++
			off += str[d-1] - (hi[d]-lo[d])*str[d]
		}
	}
}

// foldRows folds g's values at the box's positions lin0..lin1 onto a.
func foldRows[T any](g *Gen[T], w *walk, iv []int, lin0, lin1 int, a T, op func(a, b T) T) T {
	w.seek(iv, lin0)
	ax := w.axis
	for left := lin1 - lin0; ; {
		_, hi, _ := w.dims()
		n := min(hi[ax]-iv[ax], left)
		for left -= n; n > 0; n-- {
			if g.Step == nil || g.gridHas(iv) {
				a = op(a, g.Body(iv))
			}
			iv[ax]++
		}
		if left == 0 {
			return a
		}
		lo, hi, _ := w.dims()
		for d := ax; d > 0 && iv[d] == hi[d]; d-- {
			iv[d] = lo[d]
			iv[d-1]++
		}
	}
}

// rethrow resurfaces a loop-body panic from the scheduler as a panic at the
// with-loop call site, preserving the original panic value.
func rethrow(err error) {
	if err == nil {
		return
	}
	var pe *sched.PanicError
	if errors.As(err, &pe) {
		panic(pe.Value)
	}
	panic(err)
}
