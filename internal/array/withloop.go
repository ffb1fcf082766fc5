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
	// steer the walk.
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
// Body is reused between calls and must be neither retained nor modified
// (see Gen.Body).
func Genarray[T any](p *sched.Pool, shape []int, def T, gens ...Gen[T]) *Array[T] {
	res := New(shape, def)
	for i := range gens {
		applyGen(p, res, &gens[i])
	}
	return res
}

// Modarray evaluates a modarray-with-loop: a copy of src with the
// generator-covered elements replaced (§2 of the paper).
func Modarray[T any](p *sched.Pool, src *Array[T], gens ...Gen[T]) *Array[T] {
	res := src.Clone()
	for i := range gens {
		applyGen(p, res, &gens[i])
	}
	return res
}

// applyGen writes one generator into res.  Indices outside res's shape are
// skipped (the generator is intersected with the result's index space).
func applyGen[T any](p *sched.Pool, res *Array[T], g *Gen[T]) {
	rank := res.Dim()
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
		writeRows(res, *g, s, 0, s.total)
	default:
		pg := g.detached()
		rethrow(p.For(context.Background(), s.total, func(lin0, lin1 int) {
			writeRows(res, pg, s, lin0, lin1)
		}))
	}
}

// Fold evaluates a fold-with-loop: the Body values of every generator index
// are folded with op starting from neutral.  op must be associative with
// neutral as identity; the fold is evaluated in deterministic (row-major,
// generator order) combination order, so associative-but-non-commutative
// operators still match the sequential fold.
func Fold[T any](p *sched.Pool, neutral T, op func(a, b T) T, gens ...Gen[T]) T {
	acc := neutral
	for i := range gens {
		g := &gens[i]
		s := makeSpan(g, nil)
		switch {
		case s.total == 0: // empty generator
		case s.rank == 0:
			acc = op(acc, g.Body(nil))
		case runsInline(p, s.total):
			acc = op(acc, foldRows(*g, s, 0, s.total, neutral, op))
		default:
			pg := g.detached()
			part, err := sched.Reduce(p, context.Background(), s.total, neutral,
				func(lin0, lin1 int, a T) T { return foldRows(pg, s, lin0, lin1, a, op) }, op)
			rethrow(err)
			acc = op(acc, part)
		}
	}
	return acc
}

// How a with-loop runs.  A generator becomes a span: its index box as lower
// bounds and extents, intersected with the result's index space when there
// is one.  The span's row-major positions 0..total are what the pool cuts
// into chunks.  A chunk turns its first position into an index vector once
// (seed) and from there walks rows like an odometer: along a row the
// innermost index and the result offset advance by one, and only at a row's
// end does a carry run through the outer indices (row).  writeRows and
// foldRows are the two loops over that walk.

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
	s.total = total
	return s
}

// detached returns what a chunk needs of g in storage of its own.  The pool
// hands the chunk closure to other goroutines, so whatever it captures
// escapes; capturing g's own slices would put every caller's bound literals
// on the heap even for the loops that run inline.  (The closure takes the
// copy and the span by value: one allocation holds both.)
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

// walk is a chunk's place in a span.  The index vector is not part of it:
// it escapes (see seed), and a walk that held it would drag the span's
// bounds to the heap with it.
type walk struct {
	lo, ext []int
	left    int // positions of the chunk not yet handed out as rows
}

// seed starts the walk of the span's positions lin0..lin1 and returns the
// index vector of lin0.  The vector is the one allocation of a chunk: Body
// is a function value, so what it is handed escapes.
func (s *span) seed(lin0, lin1 int) (w walk, iv []int) {
	w.lo, w.ext = s.bounds()
	w.left = lin1 - lin0
	iv = make([]int, s.rank)
	LinearToIndex(lin0, w.ext, iv)
	for d := range iv {
		iv[d] += w.lo[d]
	}
	return w, iv
}

// row returns the length of the next run of consecutive innermost indices,
// 0 at the end of the chunk, with iv at the run's first index.  The caller
// advances the innermost index by one per element; row carries it over at
// the row's end.
func (w *walk) row(iv []int) int {
	if w.left == 0 {
		return 0
	}
	last := len(iv) - 1
	for d := last; d > 0 && iv[d] == w.lo[d]+w.ext[d]; d-- {
		iv[d] = w.lo[d]
		iv[d-1]++
	}
	n := min(w.lo[last]+w.ext[last]-iv[last], w.left)
	w.left -= n
	return n
}

// writeRows stores g's values at the span's positions lin0..lin1 into res.
func writeRows[T any](res *Array[T], g Gen[T], s span, lin0, lin1 int) {
	w, iv := s.seed(lin0, lin1)
	last := s.rank - 1
	for n := w.row(iv); n > 0; n = w.row(iv) {
		off := IndexToLinear(iv, res.shape)
		row := res.data[off : off+n]
		for k := range row {
			if g.Step == nil || g.gridHas(iv) {
				row[k] = g.Body(iv)
			}
			iv[last]++
		}
	}
}

// foldRows folds g's values at the span's positions lin0..lin1 onto a.
func foldRows[T any](g Gen[T], s span, lin0, lin1 int, a T, op func(a, b T) T) T {
	w, iv := s.seed(lin0, lin1)
	last := s.rank - 1
	for n := w.row(iv); n > 0; n = w.row(iv) {
		for ; n > 0; n-- {
			if g.Step == nil || g.gridHas(iv) {
				a = op(a, g.Body(iv))
			}
			iv[last]++
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
