package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, width := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 5, 255, 256, 257, 1000, 4096, 10000} {
			p := NewWithGrain(width, 64)
			hits := make([]int32, n)
			err := p.For(context.Background(), n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			if err != nil {
				t.Fatalf("width=%d n=%d: unexpected error %v", width, n, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("width=%d n=%d: index %d visited %d times", width, n, i, h)
				}
			}
		}
	}
}

func TestForNegativeAndZero(t *testing.T) {
	p := New(2)
	called := false
	if err := p.For(context.Background(), 0, func(lo, hi int) { called = true }); err != nil {
		t.Fatal(err)
	}
	if err := p.For(context.Background(), -5, func(lo, hi int) { called = true }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("body called for empty range")
	}
}

func TestForPanicPropagation(t *testing.T) {
	for _, width := range []int{1, 4} {
		p := NewWithGrain(width, 1)
		err := p.For(context.Background(), 100, func(lo, hi int) {
			if hi > 40 {
				panic("boom")
			}
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("width=%d: want PanicError, got %v", width, err)
		}
		if pe.Value != "boom" {
			t.Fatalf("panic value = %v", pe.Value)
		}
		if pe.Error() == "" {
			t.Fatal("empty error message")
		}
	}
}

func TestForCancellation(t *testing.T) {
	p := NewWithGrain(2, 1)
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	started := make(chan struct{}, 1)
	err := p.For(ctx, 1<<20, func(lo, hi int) {
		select {
		case started <- struct{}{}:
			cancel()
		default:
		}
		done.Add(1)
		time.Sleep(time.Microsecond)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if done.Load() == 1<<20 {
		t.Fatal("cancellation had no effect")
	}
}

func TestWidthAndGrainAccessors(t *testing.T) {
	p := NewWithGrain(3, 17)
	if p.Width() != 3 || p.Grain() != 17 {
		t.Fatalf("got width=%d grain=%d", p.Width(), p.Grain())
	}
	if New(0).Width() < 1 {
		t.Fatal("New(0) must select at least one worker")
	}
	if NewWithGrain(2, 0).Grain() != DefaultGrain {
		t.Fatal("grain 0 must select DefaultGrain")
	}
}

func TestReduceSum(t *testing.T) {
	for _, width := range []int{1, 2, 5} {
		p := NewWithGrain(width, 16)
		got, err := Reduce(p, context.Background(), 10000, 0,
			func(lo, hi int, acc int) int {
				for i := lo; i < hi; i++ {
					acc += i
				}
				return acc
			},
			func(a, b int) int { return a + b })
		if err != nil {
			t.Fatal(err)
		}
		if want := 10000 * 9999 / 2; got != want {
			t.Fatalf("width=%d: sum = %d, want %d", width, got, want)
		}
	}
}

func TestReduceEmpty(t *testing.T) {
	p := New(4)
	got, err := Reduce(p, context.Background(), 0, 42,
		func(lo, hi, acc int) int { return 0 },
		func(a, b int) int { return a + b })
	if err != nil || got != 42 {
		t.Fatalf("got %d, %v; want neutral 42", got, err)
	}
}

func TestReduceNonCommutativeMatchesSequential(t *testing.T) {
	// String concatenation is associative but not commutative: parallel
	// Reduce must still equal the sequential left fold.
	p := NewWithGrain(4, 4)
	n := 300
	got, err := Reduce(p, context.Background(), n, "",
		func(lo, hi int, acc string) string {
			for i := lo; i < hi; i++ {
				acc += string(rune('a' + i%26))
			}
			return acc
		},
		func(a, b string) string { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	for i := 0; i < n; i++ {
		want += string(rune('a' + i%26))
	}
	if got != want {
		t.Fatalf("parallel fold diverged from sequential fold")
	}
}

func TestReducePanic(t *testing.T) {
	p := NewWithGrain(2, 1)
	_, err := Reduce(p, context.Background(), 100, 0,
		func(lo, hi, acc int) int { panic("kaboom") },
		func(a, b int) int { return a + b })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
}

// Property: for any width/grain/n the parallel sum equals the closed form.
func TestQuickForSumProperty(t *testing.T) {
	f := func(widthRaw, grainRaw uint8, nRaw uint16) bool {
		width := int(widthRaw%8) + 1
		grain := int(grainRaw%128) + 1
		n := int(nRaw % 5000)
		p := NewWithGrain(width, grain)
		var sum atomic.Int64
		if err := p.For(context.Background(), n, func(lo, hi int) {
			var local int64
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			sum.Add(local)
		}); err != nil {
			return false
		}
		return sum.Load() == int64(n)*int64(n-1)/2 || n == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestForRunsCallerAsWorker: a width-2 For over its eight chunks starts at
// most one goroutine, the caller being the other worker, and still propagates
// a body panic and cancellation wherever the chunk ran.
func TestForRunsCallerAsWorker(t *testing.T) {
	p := NewWithGrain(2, 1)
	base := runtime.NumGoroutine()
	var mu sync.Mutex
	most := 0
	if err := p.For(context.Background(), 1000, func(lo, hi int) {
		mu.Lock()
		most = max(most, runtime.NumGoroutine())
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if got := most - base; got > 1 {
		t.Fatalf("a width-2 For ran beside %d goroutines of its own, want at most 1", got)
	}
	var pe *PanicError
	if err := p.For(context.Background(), 1000, func(lo, hi int) { panic("boom") }); !errors.As(err, &pe) || pe.Value != "boom" {
		t.Fatalf("want the body's panic, got %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	err := p.For(ctx, 1000, func(lo, hi int) {
		if calls.Add(1) == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) || calls.Load() == 8 {
		t.Fatalf("cancelled in the third chunk: err %v, %d of 8 chunks ran", err, calls.Load())
	}
}
