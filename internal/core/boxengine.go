package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file is the box execution engine: how one box node instance turns
// its input stream into invocations of the box function.  It has two modes
// and a one-way hand-over between them.
//
// Inline mode runs every invocation on the node's own goroutine, one at a
// time, with one reused emitter and argument buffer, emitting straight into
// the output stream: no goroutine hand-off, no allocation per record.  It is
// the box as a stage, in a segment of one (fuse.go: boxNode.step is the
// invocation, segment.run the loop); all the engine adds is the clock around
// each step while it has not made up its mind, and the hand-over.
//
// Concurrent mode exists because box functions are stateless by contract
// (§4: "it is the concern of the box implementation to exploit concurrency
// internally, and of S-Net to exploit it between boxes"), so one box node
// may run many invocations at a time.  What it must preserve is the stream
// abstraction around that concurrency:
//
//   - Order: the output stream must be indistinguishable from sequential
//     invocation.  Every accepted input is assigned a slot in a FIFO
//     reorder queue; invocation i's emissions are released downstream
//     strictly before invocation i+1's, whatever order the invocations
//     finish in.  Deterministic combinators fed by the box therefore see
//     exactly the inline interleaving.
//   - Marker barriers: a sort record ("marker") of the deterministic-merge
//     protocol occupies its own slot in the reorder queue, so it is
//     forwarded only after every invocation dispatched before it has
//     flushed, and before anything dispatched after it — in-flight
//     invocations never leak emissions across a marker.
//   - Panic isolation: an invocation that panics loses only its own
//     record; its slot closes and the stream continues (invoke recovers).
//   - Backpressure: each slot's emission buffer is an ordinary stream
//     (newStream) with the run's frame capacity; a fast invocation far
//     from the head of the queue blocks on its own buffer rather than
//     ballooning memory.  Closing the slot stream when the invocation
//     returns flushes any batched tail, so a worker never parks between
//     calls with emissions still pending.
//
// Which mode an instance runs in follows from its width.  A width somebody
// chose — NewBoxConcurrent(…, n), WithBoxWorkers(n) — is obeyed from the
// first record: 1 is inline for good, n > 1 is concurrent mode at width n.
// With no width given the engine chooses: the instance starts inline, times
// the box function, and hands over to concurrent mode at width GOMAXPROCS
// once the function has shown it is slow enough to repay the hand-off.

// The hand-over rule.  Concurrent mode costs each invocation a slot, an
// emission stream and three goroutine hand-offs (dispatcher → worker →
// releaser → consumer): measured on webpipe's sub-microsecond boxes,
// (core.box.wn_us_per_op − core.box.w1_us_per_op) ÷ core.box.calls_per_op
// = (10.0 − 2.7) ÷ 3 ≈ 2.5 µs per call.  At boxEscalateAfter that fixed
// cost is about an eighth of the service time, which overlapping even two
// invocations repays several times over; below it the fixed cost eats the
// gain.
//
// One slow call proves nothing, and neither do three: a collector pause, a
// GC assist or a descheduled thread lands inside a 0.1 µs box body like
// anywhere else.  Streaming webpipe at GOMAXPROCS=2, 3–4% of the calls of
// every box read over 20 µs, and runs of such calls thin out about
// twentyfold per extra call — of 8 M records the longest run was 6 — so
// the verdict takes boxEscalateRun slow calls in a row: never met by
// noise, met by a box that really is slow within its first few records.
// The run is counted on the node, across instances, so a slow box whose
// instances each see only a handful of records (per-request networks,
// replicas) still reaches it.
const (
	boxEscalateAfter = 20 * time.Microsecond
	boxEscalateRun   = 16
)

// width resolves the instance's invocation width for one run, and whether
// the engine chose it (auto) or the box or run pinned it.
func (b *boxNode) width(env *runEnv) (w int, auto bool) {
	switch {
	case b.workers > 0:
		return b.workers, false
	case env.boxWorkers > 0:
		return env.boxWorkers, false
	}
	return env.autoWidth, true
}

// measured reports whether the engine times the box's calls in this run:
// nobody gave it a width, and there is a wider one to move to.
func (b *boxNode) measured(env *runEnv) bool {
	w, auto := b.width(env)
	return auto && w > 1
}

func (b *boxNode) run(env *runEnv, in *streamReader, out *streamWriter) {
	w, auto := b.width(env)
	if w == 1 || auto {
		b.solo.run(env, in, out) // the segment of one: inline for good, or under the engine
		return
	}
	defer out.close()
	env.stats.Add(b.keys.instances, 1)
	b.runConcurrent(env, in, out, w)
}

// engine runs x, an execution of the box alone, under measurement: inline —
// the segment's loop, every step clocked (observe) — until the verdict, if it
// comes, and in concurrent mode from there.  At the hand-over x's output is
// flushed: everything emitted so far is then already downstream, so the
// hand-over cannot reorder anything.
func (b *boxNode) engine(x *segmentRun, in *streamReader) {
	if !x.loop(in, &b.escalated) {
		return
	}
	x.fold() // inline mode ends here: what it tallied, and its free slot
	x.own.drain()
	if !x.out.flush() {
		in.Discard()
		return
	}
	// From here the releaser goroutine owns out; this goroutine keeps
	// reading in and must no longer flush a writer it does not own.
	in.onIdle = nil
	x.env.stats.Add(b.keys.escalated, 1)
	b.runConcurrent(x.env, in, x.out, x.env.autoWidth)
}

// engineEpoch is what the engine's clock counts from: a reading is
// time.Since(engineEpoch), one monotonic clock read.
var engineEpoch = time.Now()

// observe is the hand-over rule applied to one clocked call.
//
// What is measured is the box's own service time: the wall time of the
// invocation minus the time its emissions waited on a full output stream.
// A cheap box behind a slow consumer spends its life blocked in Out;
// counting that would hand every box of a backpressured pipeline to
// concurrent mode, which shortens no wait and only adds the hand-offs.  For
// the same reason an invocation that waited longer than it worked is no
// evidence however long it worked: the consumer sets the pace then, and
// what is left of the wall time is as much the cost of waking up cold as
// the box's.
func (b *boxNode) observe(wall, waited time.Duration) {
	if service := wall - waited; service < boxEscalateAfter || service < waited {
		if b.slowRun.Load() != 0 {
			b.slowRun.Store(0)
		}
	} else if b.slowRun.Add(1) >= boxEscalateRun {
		b.escalated.Store(true)
	}
}

// boxSlot is one slot of the reorder queue: either a forwarded marker or
// one invocation — its bound arguments, its emitter (em.src is the input
// record, em.out the writing end of the slot's emission stream) and the
// reading end the releaser drains.  The worker closes em.out when the box
// function returns, which publishes em's final state to the releaser — the
// only party that knows which emissions actually reached the output stream
// and can therefore count the invocation.
type boxSlot struct {
	mk   *marker
	emit *streamReader
	em   Emitter
	args []any
}

// runConcurrent is the engine's concurrent mode at the given width.
func (b *boxNode) runConcurrent(env *runEnv, in *streamReader, out *streamWriter, width int) {
	env.stats.SetMax(b.keys.concurrency, int64(width))

	var (
		inflight    atomic.Int64                         // invocations currently running
		inflightMax = env.stats.maximum(b.keys.inflight) // its high-water mark: the cell, shared by the workers
		wg          sync.WaitGroup
	)
	// Reorder queue capacity beyond the worker count only buys queued-but-
	// undispatched slots; width+1 keeps the dispatcher just ahead of the
	// workers without unbounded marker pile-up.
	slots := make(chan *boxSlot, width+1)
	calls := make(chan *boxSlot)

	worker := func() {
		defer wg.Done()
		for s := range calls {
			atomicMax(inflightMax, inflight.Add(1))
			b.invoke(env, s.args, &s.em)
			inflight.Add(-1)
			releaseRecord(s.em.src) // the invocation consumed its input
			s.em.src = nil
			s.em.out.close()
		}
	}

	// The releaser walks the reorder queue in FIFO order, streaming each
	// slot's emissions (or marker) to out.  Head-of-queue emissions stream
	// through as their frames are flushed; later invocations buffer until
	// they become the head.  It also counts the invocations (boxStatKeys): one
	// counts for what its slot actually delivered downstream, and slots
	// overtaken by cancellation — including invocations still buffered or
	// never dispatched — count as cancelled.
	released := make(chan struct{})
	go func() {
		defer close(released)
		var calls, emitted tally // folded wherever the releaser waits, and at its end
		fold := func() {
			calls.fold(env.stats, b.keys.calls)
			emitted.fold(env.stats, b.keys.emitted)
		}
		defer fold()
		// nextSlot dequeues the next reorder slot, flushing out's pending
		// batch before blocking so released emissions never wait on an
		// idle reorder queue.
		nextSlot := func() (*boxSlot, bool) {
			select {
			case s, ok := <-slots:
				return s, ok
			default:
			}
			out.flush() // cancellation is handled by the send loop below
			fold()
			s, ok := <-slots
			return s, ok
		}
		aborted := false
		for {
			s, ok := nextSlot()
			if !ok {
				return
			}
			if s.mk != nil {
				if !aborted && !out.send(item{mk: s.mk}) {
					aborted = true
				}
				continue
			}
			s.emit.autoFlush(out)
			delivered, completed := 0, false
			for !aborted {
				it, ok := s.emit.recv()
				if !ok {
					if ctxDone(env.ctx) {
						aborted = true
						break
					}
					// The emission stream is closed and drained, so the
					// worker is done with the slot.
					completed = !s.em.stopped
					break
				}
				if out.send(it) {
					delivered++
					continue
				}
				aborted = true
			}
			if aborted {
				s.emit.Discard()
			}
			if emitted.n += int64(delivered); completed {
				calls.n++
			} else {
				env.stats.Add(b.keys.cancelled, 1)
			}
		}
	}()

	// Dispatch loop (the node's own goroutine).  Workers spawn lazily, one
	// per observed need up to width, so a box that happens to see only
	// sequential traffic costs a single extra goroutine.
	enqueue := func(s *boxSlot) bool { return handOff(env.ctx, slots, s, nil) }
	spawned := 0
	var last *shape // the latest record's, and the box's program for it
	var prog *boxProg
	dispatch := func(s *boxSlot) bool {
		if spawned < width {
			select {
			case calls <- s: // an idle worker was already waiting
				return true
			default:
				spawned++
				wg.Add(1)
				go worker()
			}
		}
		return handOff(env.ctx, calls, s, nil)
	}
	for {
		it, ok := in.recv()
		if !ok {
			break
		}
		if it.mk != nil {
			if !enqueue(&boxSlot{mk: it.mk}) {
				break
			}
			continue
		}
		rec := it.rec
		if last != rec.shape {
			last, prog = rec.shape, b.program(rec.shape)
		}
		args, ok := b.bind(env, rec, prog, nil)
		if !ok {
			continue
		}
		emitR, emitW := newStream(env)
		s := &boxSlot{emit: emitR, args: args,
			em: Emitter{env: env, out: emitW, box: b, src: rec, prog: prog}}
		if !enqueue(s) || !dispatch(s) {
			// Cancelled before a worker took the call.  If the slot was
			// queued the releaser's recv is cancellation-aware, so the
			// never-filled slot cannot wedge it.
			releaseRecord(rec)
			break
		}
	}
	in.Discard()
	close(calls)
	wg.Wait()
	close(slots)
	<-released
}
