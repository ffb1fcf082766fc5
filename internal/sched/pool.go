// Package sched provides the data-parallel execution substrate that stands in
// for SaC's multithreaded code generation.
//
// The paper (§1, §3) relies on the SaC compiler to execute with-loops in a
// data-parallel fashion: "it just requires multi-threaded code generation to
// be enabled".  Here the equivalent knob is a Pool: with-loops in
// internal/array partition their index spaces into chunks and execute them on
// a Pool.  Pool width 1 is the sequential baseline; width w models a w-thread
// SaC executable.
//
// Scheduling is guided self-scheduling: workers pull chunk indices from a
// shared atomic counter, so imbalanced generator bodies (the common case in
// search problems) still load-balance.  Panics in loop bodies are propagated
// to the caller; cancellation is polled between chunks.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the parallel width of loop execution.  The zero value is not
// usable; use New.  A Pool carries no goroutines of its own: a parallel loop
// runs on its caller and at most Width-1 short-lived others, which keeps
// nested parallelism deadlock-free (nested loops simply multiply width, and
// the Go scheduler multiplexes them onto GOMAXPROCS threads).
type Pool struct {
	width int
	// grain is the minimum chunk size handed to a worker.  Smaller ranges
	// are run inline.
	grain int
}

// DefaultGrain is the minimum number of loop iterations per scheduled chunk
// when no explicit grain is configured.
const DefaultGrain = 256

// New returns a Pool with the given width.  Width < 1 selects
// runtime.GOMAXPROCS(0).
func New(width int) *Pool {
	if width < 1 {
		width = runtime.GOMAXPROCS(0)
	}
	return &Pool{width: width, grain: DefaultGrain}
}

// NewWithGrain returns a Pool with an explicit minimum chunk size.
// Grain < 1 selects DefaultGrain.
func NewWithGrain(width, grain int) *Pool {
	p := New(width)
	if grain >= 1 {
		p.grain = grain
	}
	return p
}

// Width reports the parallel width of the pool.
func (p *Pool) Width() int { return p.width }

// Grain reports the minimum chunk size of the pool.
func (p *Pool) Grain() int { return p.grain }

// PanicError wraps a panic value recovered from a parallel loop body so the
// caller sees where it came from.
type PanicError struct {
	Value any
}

func (e *PanicError) Error() string { return fmt.Sprintf("sched: panic in loop body: %v", e.Value) }

// chunking computes the chunk size for a range of n iterations: several
// chunks per worker so stragglers rebalance, but never below grain.
func (p *Pool) chunking(n int) (chunk, nchunks int) {
	chunk = n / (p.width * 4)
	if chunk < p.grain {
		chunk = p.grain
	}
	nchunks = (n + chunk - 1) / chunk
	return chunk, nchunks
}

// forChunks runs body(c) for every chunk index c in [0, nchunks) on up to
// p.width workers pulling indices from a shared counter: the caller, and
// goroutines for the others.  It is the common engine under For and Reduce.
func (p *Pool) forChunks(ctx context.Context, nchunks int, body func(c int)) error {
	workers := min(p.width, nchunks)
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[PanicError]
		stop     atomic.Bool
	)
	runWorker := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				pe := &PanicError{Value: r}
				panicked.CompareAndSwap(nil, pe)
				stop.Store(true)
			}
		}()
		for {
			if stop.Load() {
				return
			}
			select {
			case <-ctx.Done():
				stop.Store(true)
				return
			default:
			}
			c := int(next.Add(1)) - 1
			if c >= nchunks {
				return
			}
			body(c)
		}
	}
	wg.Add(workers)
	for i := 1; i < workers; i++ {
		go runWorker()
	}
	runWorker()
	wg.Wait()
	if pe := panicked.Load(); pe != nil {
		return pe
	}
	return ctx.Err()
}

// For executes body over the half-open range [0, n) with guided
// self-scheduling on the pool.  body(lo, hi) must process indices lo..hi-1
// and must be safe to call concurrently from multiple goroutines on disjoint
// ranges.  For returns ctx.Err() if the context is cancelled before all
// chunks are issued, and a *PanicError if any body invocation panicked.
func (p *Pool) For(ctx context.Context, n int, body func(lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	if p.width == 1 || n <= p.grain {
		return runInline(ctx, n, body)
	}
	chunk, nchunks := p.chunking(n)
	return p.forChunks(ctx, nchunks, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		body(lo, hi)
	})
}

func runInline(ctx context.Context, n int, body func(lo, hi int)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r}
		}
	}()
	body(0, n)
	if err == nil {
		err = ctx.Err()
	}
	return err
}
