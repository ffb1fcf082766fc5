package array

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sched"
)

var p1 = sched.New(1)
var p2 = sched.NewWithGrain(2, 4)

// pools exercised by every semantic test: sequential and parallel results
// must be identical (the paper's "implicit parallelism" guarantee).
var pools = []*sched.Pool{p1, p2}

// --- The paper's §2 examples, verbatim ---

func TestPaperExampleUniform42(t *testing.T) {
	// with { ([0,0] <= iv < [3,5]) : 42; }: genarray([3,5], 0)
	for _, p := range pools {
		a := Genarray(p, []int{3, 5}, 0,
			GenHalfOpen([]int{0, 0}, []int{3, 5}, func(iv []int) int { return 42 }))
		for i := 0; i < 3; i++ {
			for j := 0; j < 5; j++ {
				if a.At(i, j) != 42 {
					t.Fatalf("a[%d,%d]=%d", i, j, a.At(i, j))
				}
			}
		}
	}
}

func TestPaperExampleIota(t *testing.T) {
	// with { ([0] <= iv < [5]) : iv[0]; }: genarray([5], 0)  ==  [0,1,2,3,4]
	for _, p := range pools {
		a := Genarray(p, []int{5}, 0,
			GenHalfOpen([]int{0}, []int{5}, func(iv []int) int { return iv[0] }))
		if !Equal(a, Vector(0, 1, 2, 3, 4)) {
			t.Fatalf("got %v", a)
		}
	}
}

func TestPaperExamplePartialCover(t *testing.T) {
	// with { ([1] <= iv < [4]) : 42; }: genarray([5], 0)  ==  [0,42,42,42,0]
	for _, p := range pools {
		a := Genarray(p, []int{5}, 0,
			GenHalfOpen([]int{1}, []int{4}, func(iv []int) int { return 42 }))
		if !Equal(a, Vector(0, 42, 42, 42, 0)) {
			t.Fatalf("got %v", a)
		}
	}
}

func TestPaperExampleOverlapLaterWins(t *testing.T) {
	// with { ([1] <= iv < [4]) : 1; ([3] <= iv < [5]) : 2; }: genarray([6], 0)
	//   ==  [0,1,1,2,2,0]   (index 3 covered by both generators gets 2)
	for _, p := range pools {
		a := Genarray(p, []int{6}, 0,
			GenHalfOpen([]int{1}, []int{4}, func(iv []int) int { return 1 }),
			GenHalfOpen([]int{3}, []int{5}, func(iv []int) int { return 2 }))
		if !Equal(a, Vector(0, 1, 1, 2, 2, 0)) {
			t.Fatalf("got %v", a)
		}
	}
}

func TestPaperExampleModarray(t *testing.T) {
	// A = [0,1,1,2,2,0]; with { ([0] <= iv < [3]) : 3; }: modarray(A)
	//   ==  [3,3,3,2,2,0]
	for _, p := range pools {
		A := Vector(0, 1, 1, 2, 2, 0)
		b := Modarray(p, A,
			GenHalfOpen([]int{0}, []int{3}, func(iv []int) int { return 3 }))
		if !Equal(b, Vector(3, 3, 3, 2, 2, 0)) {
			t.Fatalf("got %v", b)
		}
		if !Equal(A, Vector(0, 1, 1, 2, 2, 0)) {
			t.Fatal("modarray mutated its source")
		}
	}
}

func TestPaperExampleConcatPlusPlus(t *testing.T) {
	// The ++ implementation from §2, expressed with the same with-loop.
	for _, p := range pools {
		a, b := Vector(1, 2, 3), Vector(4, 5)
		rshp := []int{a.Shape()[0] + b.Shape()[0]}
		res := Genarray(p, rshp, 0,
			GenHalfOpen([]int{0}, a.Shape(), func(iv []int) int { return a.At(iv[0]) }),
			GenHalfOpen(a.Shape(), rshp, func(iv []int) int { return b.At(iv[0] - a.Shape()[0]) }))
		if !Equal(res, Vector(1, 2, 3, 4, 5)) {
			t.Fatalf("++ = %v", res)
		}
		if !Equal(Concat(a, b), res) {
			t.Fatal("Concat disagrees with the with-loop ++")
		}
	}
}

// --- engine semantics beyond the paper's examples ---

func TestClosedBoundsGenerator(t *testing.T) {
	// addNumber (§3) uses  [i,j,0] <= iv <= [i,j,8]  inclusive bounds.
	for _, p := range pools {
		a := Genarray(p, []int{10}, 0,
			GenClosed([]int{2}, []int{4}, func(iv []int) int { return 1 }))
		if !Equal(a, Vector(0, 0, 1, 1, 1, 0, 0, 0, 0, 0)) {
			t.Fatalf("got %v", a)
		}
	}
}

func TestExclusiveLowerBound(t *testing.T) {
	for _, p := range pools {
		a := Genarray(p, []int{5}, 0,
			Gen[int]{Lower: []int{1}, Upper: []int{4}, ExclLower: true,
				Body: func(iv []int) int { return 7 }})
		if !Equal(a, Vector(0, 0, 7, 7, 0)) {
			t.Fatalf("got %v", a)
		}
	}
}

func TestEmptyGeneratorIsNoop(t *testing.T) {
	for _, p := range pools {
		a := Genarray(p, []int{4}, 9,
			GenHalfOpen([]int{3}, []int{3}, func(iv []int) int { return 0 }))
		if !Equal(a, Vector(9, 9, 9, 9)) {
			t.Fatalf("got %v", a)
		}
	}
}

func TestGeneratorClampedToResultShape(t *testing.T) {
	for _, p := range pools {
		a := Genarray(p, []int{3}, 0,
			GenHalfOpen([]int{-2}, []int{10}, func(iv []int) int { return iv[0] + 1 }))
		if !Equal(a, Vector(1, 2, 3)) {
			t.Fatalf("got %v", a)
		}
	}
}

func TestStepWidthGrid(t *testing.T) {
	// step 3, width 1 starting at 0: indices 0,3,6,9
	for _, p := range pools {
		a := Genarray(p, []int{10}, 0,
			Gen[int]{Lower: []int{0}, Upper: []int{10}, Step: []int{3},
				Body: func(iv []int) int { return 1 }})
		if !Equal(a, Vector(1, 0, 0, 1, 0, 0, 1, 0, 0, 1)) {
			t.Fatalf("got %v", a)
		}
		// step 4, width 2: indices 0,1, 4,5, 8,9
		b := Genarray(p, []int{10}, 0,
			Gen[int]{Lower: []int{0}, Upper: []int{10}, Step: []int{4}, Width: []int{2},
				Body: func(iv []int) int { return 1 }})
		if !Equal(b, Vector(1, 1, 0, 0, 1, 1, 0, 0, 1, 1)) {
			t.Fatalf("got %v", b)
		}
	}
}

// A grid that does not fit its generator is refused, whichever pool runs it.
func TestMisusedGridPanics(t *testing.T) {
	rows := []struct {
		name        string
		step, width []int
	}{
		{"width without a step", nil, []int{1}},
		{"step of the wrong rank", []int{2, 2}, nil},
		{"width of the wrong rank", []int{2}, []int{1, 1}},
		{"step below 1", []int{0}, nil},
		{"width below 1", []int{3}, []int{0}},
		{"width above the step", []int{3}, []int{4}},
	}
	for _, r := range rows {
		for _, p := range pools {
			t.Run(r.name, func(t *testing.T) {
				defer wantShapePanic(t, "withloop")
				Genarray(p, []int{6}, 0, Gen[int]{Lower: []int{0}, Upper: []int{6}, Step: r.step, Width: r.width,
					Body: func(iv []int) int { return 1 }})
			})
		}
	}
}

func TestRankMismatchPanics(t *testing.T) {
	defer wantShapePanic(t, "withloop")
	Genarray(p1, []int{3, 3}, 0, GenHalfOpen([]int{0}, []int{3}, func(iv []int) int { return 1 }))
}

func TestBodyPanicSurfacesAtCallSite(t *testing.T) {
	for _, p := range pools {
		func() {
			defer func() {
				if r := recover(); r != "body-bang" {
					t.Fatalf("recovered %v", r)
				}
			}()
			Genarray(p, []int{100}, 0, GenHalfOpen([]int{0}, []int{100},
				func(iv []int) int { panic("body-bang") }))
		}()
	}
}

func TestFoldSum(t *testing.T) {
	for _, p := range pools {
		got := Fold(p, 0, func(a, b int) int { return a + b },
			GenHalfOpen([]int{0}, []int{100}, func(iv []int) int { return iv[0] }))
		if got != 99*100/2 {
			t.Fatalf("fold sum = %d", got)
		}
	}
}

func TestFoldMultipleGenerators(t *testing.T) {
	for _, p := range pools {
		got := Fold(p, 0, func(a, b int) int { return a + b },
			GenHalfOpen([]int{0}, []int{3}, func(iv []int) int { return 1 }),
			GenClosed([]int{0}, []int{3}, func(iv []int) int { return 10 }))
		if got != 3+40 {
			t.Fatalf("fold = %d", got)
		}
	}
}

func TestFoldMatrixMatchesLoop(t *testing.T) {
	for _, p := range pools {
		got := Fold(p, 0, func(a, b int) int { return a + b },
			GenHalfOpen([]int{0, 0}, []int{7, 9}, func(iv []int) int { return iv[0]*10 + iv[1] }))
		want := 0
		for i := 0; i < 7; i++ {
			for j := 0; j < 9; j++ {
				want += i*10 + j
			}
		}
		if got != want {
			t.Fatalf("fold = %d, want %d", got, want)
		}
	}
}

func TestScalarGenerator(t *testing.T) {
	for _, p := range pools {
		a := Genarray(p, nil, 0, Gen[int]{Body: func(iv []int) int { return 5 }})
		if a.ScalarValue() != 5 {
			t.Fatalf("scalar genarray = %v", a)
		}
	}
}

// Property: sequential and 2-wide parallel evaluation of a random genarray
// agree, and every covered cell holds the generator value.
func TestQuickGenarraySeqParEquivalence(t *testing.T) {
	f := func(loRaw, hiRaw [2]uint8, shapeRaw [2]uint8) bool {
		shape := []int{int(shapeRaw[0]%12) + 1, int(shapeRaw[1]%12) + 1}
		lo := []int{int(loRaw[0] % 12), int(loRaw[1] % 12)}
		hi := []int{int(hiRaw[0] % 14), int(hiRaw[1] % 14)}
		body := func(iv []int) int { return iv[0]*100 + iv[1] + 1 }
		g := GenHalfOpen(lo, hi, body)
		a := Genarray(p1, shape, -1, g)
		b := Genarray(p2, shape, -1, g)
		if !Equal(a, b) {
			return false
		}
		// verify coverage semantics against a naive loop
		for i := 0; i < shape[0]; i++ {
			for j := 0; j < shape[1]; j++ {
				in := i >= lo[0] && i < hi[0] && j >= lo[1] && j < hi[1]
				want := -1
				if in {
					want = i*100 + j + 1
				}
				if a.At(i, j) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: fold with + equals the sum over the naive iteration.
func TestQuickFoldMatchesNaive(t *testing.T) {
	f := func(loRaw, extRaw uint8) bool {
		lo := int(loRaw % 20)
		hi := lo + int(extRaw%50)
		got := Fold(p2, 0, func(a, b int) int { return a + b },
			GenHalfOpen([]int{lo}, []int{hi}, func(iv []int) int { return iv[0] * iv[0] }))
		want := 0
		for i := lo; i < hi; i++ {
			want += i * i
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A Body may run with-loops of its own, and goroutines may run with-loops at
// once on arrays of their own: none of them may see another's index vector.
// Every result is held to plain loops, on a pool that runs inline and on one
// that cuts chunks.
func TestNestedAndConcurrentWithLoops(t *testing.T) {
	// inner is what the outer Body computes at (i, j) with a Genarray, an
	// owned Modarray and a Fold of its own; plainInner is the same as loops.
	inner := func(p *sched.Pool, i, j int) int {
		g := Genarray(p, []int{4, 5}, -1, GenHalfOpen([]int{0, 1}, []int{3, 5}, func(iv []int) int { return iv[0]*i + iv[1]*j }))
		m := ModarrayOwned(p, g, GenClosed([]int{1, 0}, []int{3, 1}, func(iv []int) int { return 100 + iv[0] - iv[1] + i }))
		return Fold(p, 0, func(a, b int) int { return a + b },
			GenHalfOpen([]int{0, 0}, []int{4, 5}, func(iv []int) int { return m.At(iv[0], iv[1]) * (iv[0]*5 + iv[1] + 1) }))
	}
	plainInner := func(i, j int) int {
		sum := 0
		for a := 0; a < 4; a++ {
			for b := 0; b < 5; b++ {
				v := -1
				if a < 3 && b >= 1 {
					v = a*i + b*j
				}
				if a >= 1 && b <= 1 {
					v = 100 + a - b + i
				}
				sum += v * (a*5 + b + 1)
			}
		}
		return sum
	}

	for _, p := range []*sched.Pool{sched.New(1), sched.NewWithGrain(4, 2)} {
		// The outer Body checks that the inner with-loops left its index
		// vector where it was.
		outer := func(iv []int) int {
			i, j := iv[0], iv[1]
			v := inner(p, i, j)
			if iv[0] != i || iv[1] != j {
				panic(fmt.Sprintf("inner with-loops moved the outer index from [%d %d] to %v", i, j, iv))
			}
			return v
		}
		gen := Genarray(p, []int{6, 7}, 0, GenHalfOpen([]int{1, 0}, []int{6, 7}, outer))
		mod := ModarrayOwned(p, New([]int{6, 7}, 5), GenClosed([]int{0, 2}, []int{4, 4}, outer))
		fold := Fold(p, 0, func(a, b int) int { return a + b }, GenHalfOpen([]int{2, 3}, []int{5, 7}, outer))
		wantFold := 0
		for i := 0; i < 6; i++ {
			for j := 0; j < 7; j++ {
				wantGen, wantMod := 0, 5
				if i >= 1 {
					wantGen = plainInner(i, j)
				}
				if i <= 4 && j >= 2 && j <= 4 {
					wantMod = plainInner(i, j)
				}
				if i >= 2 && i < 5 && j >= 3 {
					wantFold += plainInner(i, j)
				}
				if gen.At(i, j) != wantGen || mod.At(i, j) != wantMod {
					t.Fatalf("pool (%d, %d) at [%d %d]: genarray %d, want %d; modarray %d, want %d",
						p.Width(), p.Grain(), i, j, gen.At(i, j), wantGen, mod.At(i, j), wantMod)
				}
			}
		}
		if fold != wantFold {
			t.Fatalf("pool (%d, %d): fold %d, want %d", p.Width(), p.Grain(), fold, wantFold)
		}

		// Eight goroutines, each placing numbers into a cube of its own as
		// the search does and building a grid of its own.
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 20; round++ {
					i, j, k0 := (w+round)%9, (w*3+round)%9, (w+2*round)%9
					cube := ModarrayOwned(p, New([]int{9, 9, 9}, true), addNumber9(i, j, k0)...)
					for a := 0; a < 9; a++ {
						for b := 0; b < 9; b++ {
							for c := 0; c < 9; c++ {
								off := a == i && b == j || c == k0 && (a == i || b == j || a/3 == i/3 && b/3 == j/3)
								if cube.At(a, b, c) == off {
									errs <- fmt.Sprintf("goroutine %d, addNumber(%d, %d, %d): cube[%d %d %d] is %v", w, i, j, k0, a, b, c, !off)
									return
								}
							}
						}
					}
					grid := Genarray(p, []int{8, 8}, 0, GenHalfOpen([]int{0, 0}, []int{8, 8}, func(iv []int) int { return iv[0]*w + iv[1]*round }))
					sum := Fold(p, 0, func(a, b int) int { return a + b }, GenHalfOpen([]int{0, 0}, []int{8, 8}, func(iv []int) int { return grid.At(iv[0], iv[1]) }))
					if want := 28*8*w + 28*8*round; sum != want {
						errs <- fmt.Sprintf("goroutine %d, round %d: grid sums to %d, want %d", w, round, sum, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Errorf("pool (%d, %d): %s", p.Width(), p.Grain(), e)
		}
	}
}
