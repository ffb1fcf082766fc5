package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
)

// Handle is a running network: a SISO pair of streams plus run-wide
// statistics.  Produce records with Send, signal end-of-input with Close,
// and consume results from Out.  The network shuts down cleanly when the
// input is closed and all in-flight records have drained, or promptly when
// the context is cancelled.
type Handle struct {
	env    *runEnv
	cancel context.CancelFunc
	in     *streamWriter
	outRec chan *Record
	done   chan struct{}

	// sendState guards the input side without ever blocking a sender on a
	// lock: the low bits count in-flight sends, closedBit marks Close.
	// Senders enter by incrementing (refused once closedBit is set), so
	// close(in) happens exactly once — by Close when no send is in flight,
	// or by the last in-flight sender to leave.  This makes Send/Close
	// safe from concurrent goroutines (the service layer's clients) while
	// keeping both non-blocking apart from the send itself, which remains
	// cancellable through the caller's context.
	sendState atomic.Int64
}

// closedBit marks the input as closed in Handle.sendState.
const closedBit = int64(1) << 62

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("core: network input closed")

// Start instantiates one run of the compiled network; see Handle.  The
// blueprint was checked, its routing tables built and its serial spines cut
// into segments at Compile time, so instantiation is pure runtime setup.
// Start may be called any number of times; every call is an independent run.
func (p *Plan) Start(ctx context.Context, opts ...Option) *Handle {
	ctx, cancel := context.WithCancel(ctx)
	env := &runEnv{
		ctx:       ctx,
		stats:     newStats(),
		buf:       DefaultStreamBuffer,
		batch:     DefaultStreamBatch,
		maxDepth:  1 << 20,
		maxWidth:  1 << 20,
		autoWidth: runtime.GOMAXPROCS(0),
		spines:    p.spines,
	}
	for _, o := range opts {
		o(env)
	}
	// The boundary input stream is written through sendBatchDirect only (one
	// frame per record, safe for concurrent client senders); batching
	// starts at the first internal hop.
	inR, inW := newStream(env, env.buf)
	h := &Handle{
		env:    env,
		cancel: cancel,
		in:     inW,
		outRec: make(chan *Record, env.buf),
		done:   make(chan struct{}),
	}
	netOutR, netOutW := newStream(env, env.buf)
	go p.graph.Node.run(env, inR, netOutW)
	go func() {
		defer close(h.done)
		defer close(h.outRec)
		defer netOutR.Discard() // cancelled: what the network still delivers goes back to the arena
		for {
			it, ok := netOutR.recv()
			if !ok {
				return
			}
			if it.mk != nil {
				continue // markers are spent at the network boundary
			}
			// The record crosses into user code here: it leaves the arena's
			// domain for good (the user owns it, the GC reclaims it).
			disownRecord(it.rec)
			select {
			case h.outRec <- it.rec:
			case <-ctx.Done():
				return
			}
		}
	}()
	return h
}

// Send injects a record into the network, blocking on backpressure.  It
// fails with ErrClosed after Close and with ErrCancelled after the run is
// cancelled.
func (h *Handle) Send(r *Record) error {
	return h.SendCtx(context.Background(), r)
}

// acquireSend registers one in-flight send in sendState, refusing after
// Close; every successful acquire must be paired with releaseSend.
func (h *Handle) acquireSend() error {
	for {
		s := h.sendState.Load()
		if s&closedBit != 0 {
			return ErrClosed
		}
		if h.sendState.CompareAndSwap(s, s+1) {
			return nil
		}
	}
}

// releaseSend retires one in-flight send; if Close arrived mid-send, the
// last sender out closes the input stream.
func (h *Handle) releaseSend() {
	if h.sendState.Add(-1) == closedBit {
		h.in.close()
	}
}

// SendCtx is Send with an additional caller context: it unblocks with the
// caller's context error if ctx is cancelled while waiting on backpressure,
// without affecting the run.  A cancelled *run* reports ErrCancelled, so
// callers can tell "my deadline passed" from "the network is gone".  It is
// the building block for serving one network to many independent clients,
// each with its own deadline.
func (h *Handle) SendCtx(ctx context.Context, r *Record) error {
	if err := h.acquireSend(); err != nil {
		return err
	}
	defer h.releaseSend()
	_, err := h.in.sendBatchDirect(ctx, []*Record{r})
	return err
}

// SendBatch injects a burst of records as ready-made frames of the run's
// batch size — the boundary counterpart of the internal frame transport.
// One SendBatch call costs ⌈len(recs)/B⌉ channel synchronizations instead
// of len(recs); use it when records arrive together anyway (a file of
// inputs, an HTTP request carrying a record array).  Like Send it blocks on
// backpressure, honours ctx, and fails with ErrClosed after Close.  It
// returns how many records entered the network — all of them unless err is
// non-nil.
func (h *Handle) SendBatch(ctx context.Context, recs []*Record) (int, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	if err := h.acquireSend(); err != nil {
		return 0, err
	}
	defer h.releaseSend()
	return h.in.sendBatchDirect(ctx, recs)
}

// Close signals end-of-input.  It is idempotent, never blocks, and is safe
// against concurrent senders: subsequent sends fail with ErrClosed, and the
// input stream is closed as soon as any in-flight sends have finished
// (records they were already committed to deliver still enter the network).
func (h *Handle) Close() {
	for {
		s := h.sendState.Load()
		if s&closedBit != 0 {
			return
		}
		if h.sendState.CompareAndSwap(s, s|closedBit) {
			if s == 0 {
				h.in.close() // no send in flight
			}
			return
		}
	}
}

// Out returns the network's output stream.  It is closed after the network
// drains (following Close) or is cancelled.
func (h *Handle) Out() <-chan *Record { return h.outRec }

// Stats returns the run's statistics collector.
func (h *Handle) Stats() *Stats { return h.env.stats }

// Err returns the first runtime error the run has reported (an unroutable
// record's *NoRouteError, a rejected box input, a panicking box, ...), or
// nil.  Errors do not stop the network — the faulty record is dropped and
// the stream continues — so Err complements WithErrorHandler as the
// after-the-fact check: errors.Is(h.Err(), ErrNoRoute) distinguishes
// routing failures.  It may be called at any time; after Wait it is the
// run's final verdict.
func (h *Handle) Err() error { return h.env.err() }

// Cancel aborts the run.  Records in flight are dropped.
func (h *Handle) Cancel() { h.cancel() }

// Wait blocks until the output stream has closed.
func (h *Handle) Wait() { <-h.done }

// feed sends all inputs and closes the input — the harnesses' producer side.
func (h *Handle) feed(inputs []*Record) {
	if _, err := h.SendBatch(context.Background(), inputs); err == nil {
		h.Close()
	}
}

// RunAll is a convenience harness: it starts the network, feeds all inputs,
// closes the input and collects every output record.  It returns the
// context's error if the run was cancelled.
func (p *Plan) RunAll(ctx context.Context, inputs []*Record, opts ...Option) ([]*Record, *Stats, error) {
	h := p.Start(ctx, opts...)
	defer h.Cancel()
	go h.feed(inputs)
	var out []*Record
	for r := range h.Out() {
		out = append(out, r)
	}
	h.Wait()
	return out, h.Stats(), ctx.Err()
}

// RunUntil starts the network, feeds inputs from the given slice, and
// returns as soon as stop(record) reports true for an output record (that
// record is returned) — the "first solution wins" harness for search
// networks like the sudoku solvers.  If the network drains without stop
// firing, RunUntil returns nil.
func (p *Plan) RunUntil(ctx context.Context, inputs []*Record, stop func(*Record) bool, opts ...Option) (*Record, *Stats, error) {
	h := p.Start(ctx, opts...)
	defer h.Cancel()
	go h.feed(inputs)
	for r := range h.Out() {
		if stop(r) {
			h.Cancel()
			return r, h.Stats(), nil
		}
	}
	return nil, h.Stats(), ctx.Err()
}
