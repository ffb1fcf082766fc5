package array

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// A reference for the with-loop engine that shares no code with it.  The
// engine is compared, over seeded random cases, with an evaluator that does
// what §2 of the paper says and nothing else: every index of the result
// takes the value of the last generator that covers it, and a fold combines
// the covered indices of each generator in row-major order, generators in
// order.  TestQuickGenarraySeqParEquivalence compares the engine with
// itself; this test is the one that would notice both widths being wrong.

// covers reports whether iv belongs to g's index set, read straight off the
// generator's declaration.
func covers[T any](g *Gen[T], iv []int) bool {
	for d, i := range iv {
		l, u := g.Lower[d], g.Upper[d]
		if i < l || (g.ExclLower && i == l) || i > u || (!g.IncUpper && i == u) {
			return false
		}
		if g.Step != nil {
			w := 1
			if g.Width != nil {
				w = g.Width[d]
			}
			if (i-l)%g.Step[d] >= w {
				return false
			}
		}
	}
	return true
}

// eachIndex calls f with every index of the box lo <= iv < hi in row-major
// order.
func eachIndex(lo, hi []int, f func(iv []int)) {
	iv := make([]int, len(lo))
	var walk func(d int)
	walk = func(d int) {
		if d == len(lo) {
			f(iv)
			return
		}
		for i := lo[d]; i < hi[d]; i++ {
			iv[d] = i
			walk(d + 1)
		}
	}
	walk(0)
}

// mix is the value generator number gi computes at iv.
func mix(gi int, iv []int) uint64 {
	h := uint64(gi+1) * 0x9E3779B97F4A7C15
	for _, i := range iv {
		h = (h ^ uint64(i+7)) * 0xFF51AFD7ED558CCD
		h ^= h >> 29
	}
	return h
}

// aff is the affine map t -> m*t + c over uint64.  Composition is
// associative, has an identity and does not commute, so a fold that combines
// in any order but row-major left to right reads differently.
type aff struct{ m, c uint64 }

func compose(x, y aff) aff { return aff{x.m * y.m, x.m*y.c + x.c} }

// wlCase is one random with-loop: a result shape and generators without
// bodies.
type wlCase struct {
	shape []int
	gens  []Gen[int]
}

func (c wlCase) String() string {
	s := fmt.Sprintf("shape %v", c.shape)
	for _, g := range c.gens {
		s += fmt.Sprintf("\n  (%v excl=%v, %v incl=%v) step %v width %v", g.Lower, g.ExclLower, g.Upper, g.IncUpper, g.Step, g.Width)
	}
	return s
}

// randomCase draws a case of the given rank: bounds reach below zero and
// past the shape, generators overlap, some are empty, some carry a grid.
func randomCase(rng *rand.Rand, rank int) wlCase {
	maxExt := 3
	if rank < 6 {
		maxExt = []int{0, 40, 12, 7, 5, 4}[rank]
	}
	c := wlCase{shape: make([]int, rank)}
	for d := range c.shape {
		c.shape[d] = 1 + rng.Intn(maxExt)
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		g := Gen[int]{Lower: make([]int, rank), Upper: make([]int, rank),
			ExclLower: rng.Intn(4) == 0, IncUpper: rng.Intn(3) == 0}
		anywhere := rng.Intn(6) == 0 // mostly empty at higher ranks
		for d, e := range c.shape {
			if anywhere {
				g.Lower[d], g.Upper[d] = rng.Intn(e+5)-2, rng.Intn(e+5)-2
			} else {
				g.Lower[d] = rng.Intn(e+2) - 2
				g.Upper[d] = g.Lower[d] + 1 + rng.Intn(e+2-g.Lower[d])
			}
		}
		if rng.Intn(5) < 2 {
			g.Step = make([]int, rank)
			for d := range g.Step {
				g.Step[d] = 1 + rng.Intn(3)
			}
			if rng.Intn(2) == 0 {
				g.Width = make([]int, rank)
				for d := range g.Width {
					g.Width[d] = 1 + rng.Intn(g.Step[d])
				}
			}
		}
		c.gens = append(c.gens, g)
	}
	return c
}

// thin squeezes extents of c's generators to one index, the innermost most
// often: columns, planes and single cells, whose rows are one element long so
// that every step of the walk is a carry.
func thin(rng *rand.Rand, c wlCase) wlCase {
	for gi := range c.gens {
		g := &c.gens[gi]
		for d := range g.Lower {
			if d == len(g.Lower)-1 && rng.Intn(4) > 0 || rng.Intn(3) == 0 {
				g.Upper[d] = g.Lower[d] + 1
				g.ExclLower, g.IncUpper = false, false
			}
		}
	}
	return c
}

// differentialCases is the seeded corpus: a few written by hand for the
// corners the issues name, ranks 1-5 at random, rank 7, above any fixed-size
// fast path, and ranks 1-5 again with thin generators.
func differentialCases() []wlCase {
	cases := []wlCase{
		// a grid whose lower bound is clamped: the grid stays anchored at -3
		{shape: []int{11}, gens: []Gen[int]{{Lower: []int{-3}, Upper: []int{20}, Step: []int{4}, Width: []int{2}}}},
		{shape: []int{5, 9}, gens: []Gen[int]{
			{Lower: []int{-1, -2}, Upper: []int{9, 9}, ExclLower: true, Step: []int{2, 3}},
			{Lower: []int{2, 2}, Upper: []int{2, 8}},                 // empty
			{Lower: []int{1, 4}, Upper: []int{3, 6}, IncUpper: true}, // overlaps the first
		}},
		// one row, one column, one element: rows of length 1
		{shape: []int{9, 9, 9}, gens: []Gen[int]{
			{Lower: []int{4, 7, 0}, Upper: []int{4, 7, 8}, IncUpper: true},
			{Lower: []int{4, 0, 4}, Upper: []int{4, 8, 4}, IncUpper: true},
			{Lower: []int{0, 7, 4}, Upper: []int{8, 7, 4}, IncUpper: true},
			{Lower: []int{3, 6, 4}, Upper: []int{5, 8, 4}, IncUpper: true},
		}},
		// a column and a plane clipped at both ends, then a grid over them:
		// innermost extent 1, later generators win where they overlap
		{shape: []int{6, 7}, gens: []Gen[int]{
			{Lower: []int{-2, 3}, Upper: []int{9, 3}, IncUpper: true},
			{Lower: []int{-2, -2}, Upper: []int{9, 9}, Step: []int{3, 2}, Width: []int{2, 1}},
			{Lower: []int{4, -1}, Upper: []int{4, 12}, IncUpper: true},
			{Lower: []int{-5, 6}, Upper: []int{20, 7}},
		}},
		{shape: []int{4, 5, 6}, gens: []Gen[int]{
			{Lower: []int{-1, -1, 2}, Upper: []int{7, 7, 2}, IncUpper: true},
			{Lower: []int{-3, 1, -3}, Upper: []int{4, 1, 9}, ExclLower: true, Step: []int{2, 1, 3}, Width: []int{1, 1, 2}},
			{Lower: []int{2, -4, 2}, Upper: []int{3, 11, 3}},
		}},
		// past fixedRank: a single cell, a line along the outermost axis, a
		// clipped grid across everything
		{shape: []int{3, 2, 4, 3, 2}, gens: []Gen[int]{
			{Lower: []int{-1, -1, -1, -1, -1}, Upper: []int{5, 5, 5, 5, 5}, Step: []int{2, 1, 3, 2, 1}, Width: []int{1, 1, 2, 1, 1}},
			{Lower: []int{-2, 1, 3, 2, 1}, Upper: []int{8, 1, 3, 2, 1}, IncUpper: true},
			{Lower: []int{2, 0, 1, 1, 0}, Upper: []int{2, 0, 1, 1, 0}, IncUpper: true},
		}},
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 250; i++ {
		cases = append(cases, randomCase(rng, 1+i%5))
	}
	for i := 0; i < 4; i++ {
		cases = append(cases, randomCase(rng, 7))
	}
	rng = rand.New(rand.NewSource(23))
	for i := 0; i < 150; i++ {
		cases = append(cases, thin(rng, randomCase(rng, 1+i%5)))
	}
	return cases
}

var differentialPools = []*sched.Pool{
	sched.New(1),
	sched.NewWithGrain(3, 1), // chunks of a few elements: they begin and end mid-row
	sched.NewWithGrain(4, 7),
	sched.NewWithGrain(4, 1), // a chunk an element where the span allows: every boundary mid-row
}

func TestWithLoopDifferential(t *testing.T) {
	for ci, c := range differentialCases() {
		rank := len(c.shape)
		inShape := func(iv []int) bool {
			for d, i := range iv {
				if i < 0 || i >= c.shape[d] {
					return false
				}
			}
			return true
		}

		// The reference: genarray over a default, modarray over a source,
		// fold of the affine maps.
		size := Size(c.shape)
		src := make([]uint64, size)
		for i := range src {
			src[i] = mix(-1, []int{i})
		}
		wantGen, wantMod := make([]uint64, size), make([]uint64, size)
		pos := 0
		eachIndex(make([]int, rank), c.shape, func(iv []int) {
			wantGen[pos], wantMod[pos] = 42, src[pos]
			for gi := len(c.gens) - 1; gi >= 0; gi-- {
				if covers(&c.gens[gi], iv) {
					wantGen[pos], wantMod[pos] = mix(gi, iv), mix(gi, iv)
					break
				}
			}
			pos++
		})
		wantFold := aff{1, 0}
		for gi := range c.gens {
			g := &c.gens[gi]
			hi := make([]int, rank)
			for d := range hi {
				hi[d] = g.Upper[d] + 1
			}
			eachIndex(g.Lower, hi, func(iv []int) {
				if covers(g, iv) {
					h := mix(gi, iv)
					wantFold = compose(wantFold, aff{h | 1, h >> 7})
				}
			})
		}

		// The engine, at every pool.
		writes := make([]Gen[uint64], len(c.gens))
		folds := make([]Gen[aff], len(c.gens))
		for gi, g := range c.gens {
			writes[gi] = Gen[uint64]{Lower: g.Lower, Upper: g.Upper, ExclLower: g.ExclLower, IncUpper: g.IncUpper,
				Step: g.Step, Width: g.Width, Body: func(iv []int) uint64 {
					if !inShape(iv) {
						panic(fmt.Sprintf("body called outside the result at %v", iv))
					}
					return mix(gi, iv)
				}}
			folds[gi] = Gen[aff]{Lower: g.Lower, Upper: g.Upper, ExclLower: g.ExclLower, IncUpper: g.IncUpper,
				Step: g.Step, Width: g.Width, Body: func(iv []int) aff {
					h := mix(gi, iv)
					return aff{h | 1, h >> 7}
				}}
		}
		for _, p := range differentialPools {
			where := fmt.Sprintf("case %d, pool (%d, %d): %v", ci, p.Width(), p.Grain(), c)
			if got := Genarray(p, c.shape, 42, writes...); !Equal(got, FromSlice(c.shape, wantGen)) {
				t.Fatalf("genarray differs from the reference\n%s\ngot  %v\nwant %v", where, got.Data(), wantGen)
			}
			if got := Modarray(p, FromSlice(c.shape, src), writes...); !Equal(got, FromSlice(c.shape, wantMod)) {
				t.Fatalf("modarray differs from the reference\n%s\ngot  %v\nwant %v", where, got.Data(), wantMod)
			}
			if got := Fold(p, aff{1, 0}, compose, folds...); got != wantFold {
				t.Fatalf("fold differs from the reference\n%s\ngot  %v\nwant %v", where, got, wantFold)
			}
		}
	}
}

// A fold's generators need not agree in rank — there is no result for them
// to index — so whatever the engine keeps from one generator to the next has
// to fit the next one.
func TestFoldGeneratorsOfDifferentRank(t *testing.T) {
	bounds := [][2][]int{
		{{1, -2, 0}, {3, 2, 4}},
		{{2}, {9}},
		{{}, {}},
		{{0, 1, 0, 2, 1}, {2, 2, 3, 3, 3}},
		{{4, 4}, {4, 9}}, // empty
		{{-1, 3}, {2, 5}},
	}
	folds := make([]Gen[aff], len(bounds))
	want := aff{1, 0}
	for gi, b := range bounds {
		body := func(iv []int) aff {
			h := mix(gi, iv)
			return aff{h | 1, h >> 7}
		}
		folds[gi] = GenHalfOpen(b[0], b[1], body)
		eachIndex(b[0], b[1], func(iv []int) { want = compose(want, body(iv)) })
	}
	for _, p := range differentialPools {
		if got := Fold(p, aff{1, 0}, compose, folds...); got != want {
			t.Fatalf("pool (%d, %d): fold %v, want %v", p.Width(), p.Grain(), got, want)
		}
	}
}
