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

// checkGrid panics unless Step and Width fit the rank and each other.  Like
// Offset it formats copies, so that a caller's literals need not escape.
func (g *Gen[T]) checkGrid(rank int) {
	if g.Step == nil {
		return
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
// skipped; the generators that run inline share one index vector.
func ModarrayOwned[T any](p *sched.Pool, res *Array[T], gens ...Gen[T]) *Array[T] {
	rank := res.Dim()
	var iv []int
	for i := range gens {
		g := &gens[i]
		if len(g.Lower) != rank {
			panic(shapeErrf("withloop", "generator rank %d does not match result rank %d", len(g.Lower), rank))
		}
		s := makeSpan(g, res.shape)
		switch {
		case s.total == 0: // empty generator
		case rank == 0:
			// Degenerate scalar generator covers the single element.
			res.data[0] = g.Body(nil)
		case runsInline(p, s.total):
			if iv == nil {
				iv = make([]int, rank)
			}
			writeRows(res, g, &s, iv, 0, s.total)
		default:
			pg, ps := g.detached(), s
			rethrow(p.For(context.Background(), s.total, func(lin0, lin1 int) {
				g, s := pg, ps
				writeRows(res, &g, &s, make([]int, rank), lin0, lin1)
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
	var iv []int // shared as in ModarrayOwned, but a fold's generators may differ in rank
	for i := range gens {
		g := &gens[i]
		s := makeSpan(g, nil)
		switch {
		case s.total == 0: // empty generator
		case s.rank == 0:
			acc = op(acc, g.Body(nil))
		case runsInline(p, s.total):
			if len(iv) != s.rank {
				iv = make([]int, s.rank)
			}
			acc = op(acc, foldRows(g, &s, iv, 0, s.total, neutral, op))
		default:
			pg, ps := g.detached(), s
			part, err := sched.Reduce(p, context.Background(), s.total, neutral, func(lin0, lin1 int, a T) T {
				g, s := pg, ps
				return foldRows(&g, &s, make([]int, s.rank), lin0, lin1, a, op)
			}, op)
			rethrow(err)
			acc = op(acc, part)
		}
	}
	return acc
}

// How a with-loop runs.  A generator becomes a span: its index box as lower
// bounds and extents, intersected with the result's index space when there
// is one.  The span's row-major positions 0..total are what the pool cuts
// into chunks.  A chunk turns its first position into an index vector and a
// result offset once (start) and from there walks rows like an odometer.  A
// row runs along the span's axis, the innermost dimension of extent above
// one, so a column is one row: the axis index advances by one and the offset
// by the axis's stride, and at a row's end a carry runs through the outer
// indices and moves the offset by the stride of each dimension it touches
// (carry).  writeRows and foldRows are the two loops over that walk.

// runsInline reports whether the pool would run a loop of n positions as one
// chunk on the caller's goroutine — the condition Pool.For and sched.Reduce
// apply.  Such a loop calls its kernel directly: no closure to escape, no
// recover, and a Body panic simply propagates.
func runsInline(p *sched.Pool, n int) bool { return p.Width() == 1 || n <= p.Grain() }

// fixedRank is the rank up to which a span keeps its bounds inline, so that
// a with-loop of the ranks this repository uses (boards are rank 2, option
// cubes rank 3) builds them without allocating.  Any rank works; a higher one
// pays one make per generator.
const fixedRank = 4

// span is the index box one generator walks.
type span struct {
	rank, total int // total is 0 for an empty box
	axis        int // the innermost dimension whose extent is above one, else 0
	stride      int // the axis's stride in the result; 1 for a fold
	fixed       [2 * fixedRank]int
	spill       []int // holds the bounds instead of fixed when rank > fixedRank
}

// bounds returns the lower bounds and extents of the box.
func (s *span) bounds() (lo, ext []int) {
	b := s.fixed[:]
	if s.rank > fixedRank {
		b = s.spill
	}
	return b[:s.rank], b[s.rank : 2*s.rank]
}

// makeSpan checks g and returns its index box, clamped to shape unless shape
// is nil (a fold has no result to clamp to).
func makeSpan[T any](g *Gen[T], shape []int) (s span) {
	s.rank = len(g.Lower)
	if len(g.Upper) != s.rank {
		panic(shapeErrf("withloop", "generator bounds %v and %v differ in length", cloneInts(g.Lower), cloneInts(g.Upper)))
	}
	g.checkGrid(s.rank)
	if s.rank > fixedRank {
		s.spill = make([]int, 2*s.rank)
	}
	lo, ext := s.bounds()
	total := 1
	for d := range lo {
		l, h := g.Lower[d], g.Upper[d]
		if g.ExclLower {
			l++
		}
		if g.IncUpper {
			h++
		}
		if shape != nil {
			// A lower bound below zero is cut, not shifted: the grid
			// stays anchored at the declared bound (gridHas).
			l, h = max(l, 0), min(h, shape[d])
		}
		if h <= l {
			return s
		}
		lo[d], ext[d] = l, h-l
		total *= h - l
	}
	s.total, s.axis, s.stride = total, s.rank-1, 1
	for ; s.axis > 0 && ext[s.axis] == 1; s.axis-- {
		if shape != nil {
			s.stride *= shape[s.axis]
		}
	}
	return s
}

// detached returns what a chunk needs of g in storage of its own.  The pool
// hands the chunk closure to other goroutines, so whatever it captures
// escapes; capturing g's own slices would put every caller's bound literals
// on the heap even for the loops that run inline.  The closure takes the
// copy and a copy of the span by value, so one allocation holds both — as
// long as nobody takes their addresses: a chunk points its kernel at copies.
func (g *Gen[T]) detached() Gen[T] {
	return Gen[T]{Lower: cloneInts(g.Lower), Step: cloneInts(g.Step), Width: cloneInts(g.Width), Body: g.Body}
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

// start sets iv to the index of the span's position lin and returns its
// row-major offset in an array of the given shape (nil for a fold, which has
// no result to address).  These are a chunk's only divisions, none when it
// starts at the span's origin as every inline generator does.
func (s *span) start(iv []int, lin int, shape []int) (off int) {
	lo, ext := s.bounds()
	stride := 1
	for d := s.rank - 1; d >= 0; d-- {
		iv[d] = lo[d]
		if lin != 0 {
			iv[d] += lin % ext[d]
			lin /= ext[d]
		}
		if shape != nil {
			off += iv[d] * stride
			stride *= shape[d]
		}
	}
	return off
}

// carry moves iv, whose axis index may have run off its row's end, to the
// span's next index and returns by how much that moves the offset in an
// array of the given shape: a dimension that wraps goes back by its extent
// and sends the one outside it forward by one, each in units of its stride.
func (s *span) carry(iv, shape []int) (delta int) {
	lo, ext := s.bounds()
	stride := s.stride
	for d := s.axis; d > 0 && iv[d] == lo[d]+ext[d]; d-- {
		iv[d] = lo[d]
		iv[d-1]++
		if shape != nil {
			delta -= ext[d] * stride
			stride *= shape[d]
			delta += stride
		}
	}
	return delta
}

// writeRows stores g's values at the span's positions lin0..lin1 into res,
// stepping iv, from which the caller reads nothing.  Along a row the offset
// moves by the axis's stride.
func writeRows[T any](res *Array[T], g *Gen[T], s *span, iv []int, lin0, lin1 int) {
	lo, ext := s.bounds()
	ax := s.axis
	end := lo[ax] + ext[ax]
	off := s.start(iv, lin0, res.shape)
	for left := lin1 - lin0; left > 0; off += s.carry(iv, res.shape) {
		n := min(end-iv[ax], left)
		for left -= n; n > 0; n, off = n-1, off+s.stride {
			if g.Step == nil || g.gridHas(iv) {
				res.data[off] = g.Body(iv)
			}
			iv[ax]++
		}
	}
}

// foldRows folds g's values at the span's positions lin0..lin1 onto a.
func foldRows[T any](g *Gen[T], s *span, iv []int, lin0, lin1 int, a T, op func(a, b T) T) T {
	lo, ext := s.bounds()
	ax := s.axis
	end := lo[ax] + ext[ax]
	s.start(iv, lin0, nil)
	for left := lin1 - lin0; left > 0; s.carry(iv, nil) {
		n := min(end-iv[ax], left)
		for left -= n; n > 0; n-- {
			if g.Step == nil || g.gridHas(iv) {
				a = op(a, g.Body(iv))
			}
			iv[ax]++
		}
	}
	return a
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
