package core

import (
	"context"
	"sync/atomic"
	"time"
)

// The record plane's transport.  Nodes exchange frames — batches of up to B
// items (WithStreamBatch) — through a streamReader / streamWriter pair over one
// buffered channel: one channel synchronization per frame, not per record.
// Flushing is adaptive, so latency stays flat when traffic is light: a writer
// flushes when its batch is full; a node about to block on its input first
// flushes the writers it owns (autoFlush), so a record never waits on traffic
// that is not coming; a sort marker and close flush at once — holding back a
// marker would stall every merger waiting on it.  Pending items leave in FIFO
// position, so a merger sees a region's data before the marker that ends it.
//
// A streamWriter is single-goroutine: only the goroutine that writes a stream
// sends, flushes or closes it — but a site's out, which the last of its
// writers closes (fanout.leave) — and registers it with autoFlush only on the
// reader it reads (sendBatchDirect, the network boundary's, is the exception).
// A writer has one of two sinks: a frame channel with one reader, or — the
// output writer of a combinator branch — a merge queue (merge.go), into which
// ship hands each frame tagged with the branch; close is the branch's evClosed,
// or, for a writer a direct site spawned, one writer fewer of the site's out.
// The merge queue is the one multi-producer channel of the record plane
// besides the network boundary.

// item is one element on a stream: either a data record or a control marker
// ("sort record") of the deterministic-merge protocol.  Exactly one of rec
// and mk is non-nil.
type item struct {
	rec *Record
	mk  *marker
}

// marker is a sort record: deterministic combinators emit one after every
// routed data record, broadcast to all live branches.  Mergers use the
// per-branch arrival order of markers to reassemble the deterministic output
// order (see merge.go).  Each combinator instance broadcasts one marker of its
// own, told apart by its address: a merger drops its own markers after use
// and forwards foreign ones.  (Not zero-size: pointers to distinct zero-size
// values may compare equal.)
type marker struct{ _ byte }

// frame is one transport unit: either a single inline item (the common case
// under light load, and always at B=1 — no per-record allocation) or a batch
// of items handed off by a writer's flush.
type frame struct {
	single item
	batch  []item // nil: the payload is single
}

// stream is a reader/writer pair, allocated as one (a run's boundary pairs
// in its block).
type stream struct {
	r streamReader
	w streamWriter
}

// open connects s over a new channel of frames frames of the run's batch size
// (env.buf but for a box call's emissions).
func (s *stream) open(env *runEnv, frames int) (*streamReader, *streamWriter) {
	ch := make(chan frame, frames)
	s.r.env, s.r.ch = env, ch
	s.w.env, s.w.ch, s.w.batch = env, ch, env.batch
	// Most readers' goroutines own exactly one writer: its idle-flush
	// registration lands in the reader's own slot, not in a slice of its own.
	s.r.onIdle = s.r.idle1[:0]
	return &s.r, &s.w
}

// streamWriter is the producing end of a stream.  All methods except
// sendBatchDirect must be called from the single goroutine that owns the writer.
type streamWriter struct {
	env *runEnv
	ch  chan frame // nil for a branch-output writer
	// A branch-output writer ships into fan's merge queue on behalf of
	// branch; both are nil for an ordinary stream.  One a direct site spawned
	// (fanout.writer) reports its close to done.
	fan     *fanout
	branch  *mergerBranch
	done    *fanout
	marked  bool   // the stream can carry sort markers: a deterministic site encloses it
	batch   int    // flush threshold B (>= 1)
	pending []item // items accumulated since the last flush
	closed  bool
	// blocked is the total time ship has spent waiting on a full stream.
	blocked time.Duration

	// Transport counters, kept local (no locks on the hot path) and folded
	// into the run's Stats by close: frames/records delivered and the
	// per-stream frame-size high-water mark.  sendBatchDirect, which
	// concurrent boundary senders share, counts into the run's cells at once.
	frames  int64
	records int64
	hwm     int
}

// send appends one item to the stream, flushing per the adaptive policy.
// It reports false when the run has been cancelled.
func (w *streamWriter) send(it item) bool {
	if it.rec != nil {
		w.records++
	}
	if w.batch <= 1 && len(w.pending) == 0 {
		// Unbatched stream: ship the item inline, no allocation.
		return w.ship(frame{single: it})
	}
	if w.pending == nil {
		w.pending = acquireFrameSlab(w.batch)
	}
	w.pending = append(w.pending, it)
	if it.mk != nil || len(w.pending) >= w.batch {
		return w.flush()
	}
	return true
}

// flush delivers the pending batch downstream (blocking); it is a no-op
// with nothing pending and reports false when the run has been cancelled.
func (w *streamWriter) flush() bool {
	n := len(w.pending)
	if n == 0 {
		return true
	}
	var f frame
	if n == 1 {
		// Single-item batch: ship inline and reuse the buffer, so light
		// traffic over a batched stream does not allocate per record.
		f = frame{single: w.pending[0]}
		w.pending = w.pending[:0]
	} else {
		f = frame{batch: w.pending}
		w.pending = nil
	}
	return w.ship(f)
}

// handOff sends v on ch; false means the run was cancelled first.  A wait on
// a full channel is a wait on the consumer, not work of the sender: it is
// timed into *blocked (if anyone asks) so the box engine can tell a slow box
// from a cheap one held up by backpressure (boxengine.go).  The clock is read
// only on that path, which parks anyway.
func handOff[T any](ctx context.Context, ch chan<- T, v T, blocked *time.Duration) bool {
	select {
	case ch <- v:
		return true
	default:
	}
	t0 := time.Now()
	select {
	case ch <- v:
		if blocked != nil {
			*blocked += time.Since(t0)
		}
		return true
	case <-ctx.Done():
		return false
	}
}

// offer is handOff for the record plane's channels, whose readers may stop
// listening once the run is gone: a cancelled run's v is not offered, and if
// the run goes while v is on offer what is left on ch is taken back here, so
// nothing stays in a buffer nobody reads.  False leaves v the caller's.
func offer[T interface{ release() int64 }](ctx context.Context, ch chan T, v T, blocked *time.Duration) bool {
	if ctxDone(ctx) || !handOff(ctx, ch, v, blocked) {
		return false
	}
	if ctxDone(ctx) {
		reclaim(ch)
	}
	return true
}

// reclaim releases, and counts, the records a cancelled run's channel holds.
func reclaim[T interface{ release() int64 }](ch chan T) (n int64) {
	for {
		select {
		case v, ok := <-ch:
			if !ok {
				return n
			}
			n += v.release()
		default:
			return n
		}
	}
}

// ship performs the channel handoff of one frame — to the stream's reader, or
// to the merger a branch-output writer is bound to.  The transport counters
// settle here, on delivery: a frame dropped by cancellation retracts its
// records so "stream.records" reflects only what reached the channel.
func (w *streamWriter) ship(f frame) bool {
	var ok bool
	if w.fan != nil {
		ok = offer(w.env.ctx, w.fan.mux, branchEvent{kind: evFrame, b: w.branch, fr: f}, &w.blocked)
	} else {
		ok = offer(w.env.ctx, w.ch, f, &w.blocked)
	}
	if !ok { // undo the accounting of a frame that never reached the channel
		w.records -= f.release()
		return false
	}
	w.hwm = max(w.hwm, len(f.batch), 1)
	w.frames++
	return true
}

// release returns an undelivered frame — its data records and its slab — to
// the arena and reports how many records that were.
func (f frame) release() int64 {
	defer releaseFrameSlab(f.batch) // a no-op for a single
	return releaseItems(f.single) + releaseItems(f.batch...)
}

// releaseItems releases the data records among items and counts them.
func releaseItems(items ...item) int64 {
	var n int64
	for _, it := range items {
		if it.rec != nil {
			n++
			releaseRecord(it.rec)
		}
	}
	return n
}

// sendBatchDirect ships a burst of records — or one — immediately, as frames of
// up to batch items, bypassing the pending buffer and honouring both the run
// context and the caller's.  It is safe for concurrent use as long as no
// goroutine uses the batched send on the same writer — the network boundary's
// contract (net.go).  It returns how many records were delivered — on error a
// frame-aligned prefix of recs — and nil, ErrCancelled (run cancelled) or the
// caller context's error.
func (w *streamWriter) sendBatchDirect(ctx context.Context, recs []*Record) (int, error) {
	sent := 0
	for sent < len(recs) {
		n := min(w.batch, len(recs)-sent)
		var f frame
		if n == 1 {
			f = frame{single: item{rec: recs[sent]}}
		} else {
			batch := acquireFrameSlab(n)
			for _, r := range recs[sent : sent+n] {
				batch = append(batch, item{rec: r})
			}
			f = frame{batch: batch}
		}
		select {
		case w.ch <- f:
		case <-w.env.ctx.Done():
			releaseFrameSlab(f.batch)
			return sent, ErrCancelled
		case <-ctx.Done():
			releaseFrameSlab(f.batch)
			return sent, ctx.Err()
		}
		if ctxDone(w.env.ctx) {
			reclaim(w.ch) // as offer does
		}
		w.env.stats.at(statRecords).Add(int64(n))
		w.env.stats.at(statFrames).Add(1)
		sent += n
	}
	return sent, nil
}

// close flushes pending items, folds the writer's transport counters into the
// run's Stats and closes the channel — for a branch-output writer: tells the
// merger, or the direct site, the branch has closed.  Idempotent.
func (w *streamWriter) close() {
	if w.closed {
		return
	}
	w.closed = true
	w.flush()
	if w.pending != nil && len(w.pending) == 0 {
		releaseFrameSlab(w.pending)
		w.pending = nil
	}
	// Fold first: a run that has drained has then counted all its streams.
	if s := w.env.stats; w.frames > 0 {
		s.at(statFrames).Add(w.frames)
		s.at(statRecords).Add(w.records)
		atomicMax(s.at(statFrameHWM), int64(w.hwm))
	}
	switch {
	case w.done != nil:
		w.done.leave()
	case w.fan != nil:
		w.fan.sendEv(branchEvent{kind: evClosed, b: w.branch})
	default:
		close(w.ch)
	}
}

// streamReader is the consuming end of a stream.  All methods must be
// called from the single goroutine that owns the reader — until Discard,
// which detaches ownership to a background drainer.
type streamReader struct {
	env *runEnv
	ch  chan frame
	cur []item // remainder of the current multi-item frame
	pos int

	// onIdle holds the writers this reader's goroutine owns; recv flushes
	// them before blocking, which is the adaptive policy's idle flush.
	onIdle     []*streamWriter
	idle1      [1]*streamWriter // onIdle's first backing array
	discarding atomic.Bool
}

// autoFlush registers a writer to be flushed whenever recv is about to
// block.  The writer must be owned by the same goroutine that reads from r.
func (r *streamReader) autoFlush(ws ...*streamWriter) {
	r.onIdle = append(r.onIdle, ws...)
}

// recv returns the next item, or false once closed and drained or cancelled.
func (r *streamReader) recv() (item, bool) {
	if r.pos < len(r.cur) {
		it := r.cur[r.pos]
		r.pos++
		return it, true
	}
	r.finishFrame()
	// Fast path: a frame is already waiting.
	select {
	case f, ok := <-r.ch:
		return r.accept(f, ok)
	default:
	}
	// The input is momentarily idle: flush owned writers so downstream
	// never waits on our buffered output, then block.
	for _, w := range r.onIdle {
		if !w.flush() {
			return item{}, false
		}
	}
	select {
	case f, ok := <-r.ch:
		return r.accept(f, ok)
	case <-r.env.ctx.Done():
		return item{}, false
	}
}

// drained reports whether the frame in hand is read to its end: the next recv
// takes a new one, or waits for it — where the goroutine folds (arenaFront).
func (r *streamReader) drained() bool { return r.pos >= len(r.cur) }

// finishFrame returns the consumed frame's slab to the arena.  Called only
// once the frame is exhausted; the items were handed out by value, so the
// slab holds no live state.
func (r *streamReader) finishFrame() {
	if r.cur != nil {
		releaseFrameSlab(r.cur)
		r.cur = nil
		r.pos = 0
	}
}

func (r *streamReader) accept(f frame, ok bool) (item, bool) {
	if !ok {
		return item{}, false
	}
	if f.batch == nil {
		return f.single, true
	}
	r.cur, r.pos = f.batch, 1
	return f.batch[0], true
}

// Discard detaches a background consumer for the remainder of the stream.
// Every node that stops consuming its input early — whether it hit a
// cancelled send or finished a dispatch loop — uses this one call so
// upstream senders can never stay blocked on a stream nobody reads.  The
// drainer returns on close or cancellation and counts the data records it
// threw away under "stream.discarded".  A stream that is already closed and
// drained — every normal end of a dispatch loop — has nothing left to
// consume, so nothing is detached.  Idempotent; the reader must not be used
// after calling it.
func (r *streamReader) Discard() {
	if r.discarding.Swap(true) {
		return
	}
	// One non-blocking look at the channel first; a frame it picks up goes
	// to the drainer, which counts it like any other.
	var head frame
	if r.pos >= len(r.cur) {
		select {
		case f, ok := <-r.ch:
			if !ok {
				r.finishFrame()
				return
			}
			head = f
		default:
		}
	}
	r.env.spawn(func() { r.drain(head) })
}

// drain is Discard's background consumer: the unread rest of the frame in
// hand, then head, then whatever the stream still delivers.
func (r *streamReader) drain(head frame) {
	n := releaseItems(r.cur[r.pos:]...)
	r.finishFrame()
	n += head.release()
	defer func() {
		if n > 0 {
			r.env.stats.at(statDiscarded).Add(n)
		}
	}()
	for {
		// Prefer frames already delivered over the cancellation signal
		// so the discard count is deterministic for everything that
		// reached the stream before the early exit — and look once more
		// after the run went, as a frame offered before may still land.
		select {
		case f, ok := <-r.ch:
			if !ok {
				return
			}
			n += f.release()
			continue
		default:
		}
		if ctxDone(r.env.ctx) {
			return
		}
		select {
		case f, ok := <-r.ch:
			if !ok {
				return
			}
			n += f.release()
		case <-r.env.ctx.Done():
		}
	}
}

// ctxDone reports whether the run has been cancelled.
func ctxDone(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}
