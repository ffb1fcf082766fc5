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
	// close(in) happens exactly once — by Close when no send is in flight, or
	// by the last in-flight sender to leave.  This makes Send/Close safe from
	// concurrent goroutines (the service layer's clients) while keeping both
	// non-blocking but for the send itself, cancellable through its context.
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
	env, cancel := p.newRun(ctx, opts)
	// The boundary input stream is written through sendBatchDirect only, safe
	// for concurrent client senders; batching starts at the first internal hop.
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
		for rec, ok := recvOutput(netOutR); ok; rec, ok = recvOutput(netOutR) {
			select {
			case h.outRec <- rec:
			case <-env.ctx.Done():
				return
			}
		}
	}()
	return h
}

// newRun sets up one run of p: its environment, under a context of its own.
func (p *Plan) newRun(ctx context.Context, opts []Option) (*runEnv, context.CancelFunc) {
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
	return env, cancel
}

// recvOutput is the next record of a network's output stream, which leaves
// the arena here for user code (disownRecord); markers are spent.
func recvOutput(out *streamReader) (*Record, bool) {
	for {
		it, ok := out.recv()
		if !ok || it.mk == nil {
			disownRecord(it.rec)
			return it.rec, ok
		}
	}
}

// Send injects a record into the network, blocking on backpressure.  It fails
// with ErrClosed after Close and with ErrCancelled after the run is cancelled.
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
	_, err := h.SendBatch(ctx, []*Record{r})
	return err
}

// SendBatch injects a burst of records as ready-made frames of the run's batch
// size — the boundary counterpart of the internal frame transport.  One
// SendBatch call costs ⌈len(recs)/B⌉ channel synchronizations instead of
// len(recs); use it when records arrive together anyway (a file of inputs, an
// HTTP request carrying a record array).  Like Send it blocks on backpressure,
// honours ctx, and fails with ErrClosed after Close.  It returns how many
// records entered the network — all of them unless err is non-nil.
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
// record's *NoRouteError, a rejected box input, a panicking box, ...), or nil.
// Errors do not stop the network — the faulty record is dropped and the stream
// continues — so Err complements WithErrorHandler as the after-the-fact check:
// errors.Is(h.Err(), ErrNoRoute) distinguishes routing failures.  It may be
// called at any time; after Wait it is the run's final verdict.
func (h *Handle) Err() error { return h.env.err() }

// Cancel aborts the run.  Records in flight are dropped.
func (h *Handle) Cancel() { h.cancel() }

// Wait blocks until the output stream has closed.
func (h *Handle) Wait() { <-h.done }

// RunAll is the one-shot harness: RunUntil collecting every output record.
// It returns the context's error if the run was cancelled.
func (p *Plan) RunAll(ctx context.Context, inputs []*Record, opts ...Option) ([]*Record, *Stats, error) {
	var out []*Record
	_, stats, err := p.RunUntil(ctx, inputs, func(r *Record) bool {
		out = append(out, r)
		return false
	}, opts...)
	return out, stats, err
}

// RunUntil runs the network over inputs and returns as soon as stop(record)
// reports true for an output record (that record is returned) — the "first
// solution wins" harness for search networks like the sudoku solvers.  If the
// network drains without stop firing, RunUntil returns nil and the context's
// error.  The run owns inputs, as Send would, and takes them in order; once
// stop fires or the context is done the run is cut, and the inputs it had not
// taken go back to the arena, counted as "input.untaken".  The run is one
// goroutine running Plan.once (the root's one-shot cut, where it has one) and
// writing the stream read here.  The inputs wait in a stream of their own, one
// frame each, filled and closed before it starts, which the run reads but
// never drains: whoever receives a frame owns its record, so once the caller
// has emptied that stream at the cut, the run has taken exactly the rest.
func (p *Plan) RunUntil(ctx context.Context, inputs []*Record, stop func(*Record) bool, opts ...Option) (*Record, *Stats, error) {
	env, cancel := p.newRun(ctx, opts)
	defer cancel()
	inR, inW := newStream(env, len(inputs))
	inR.discarding.Store(true) // what the run leaves there, the caller takes back
	for _, r := range inputs {
		inW.ch <- frame{single: item{rec: r}}
	}
	close(inW.ch)
	outR, outW := newStream(env, 0) // its reader is always waiting, but in stop
	go p.once.run(env, inR, outW)
	rec, ok := recvOutput(outR)
	for ok && !stop(rec) {
		rec, ok = recvOutput(outR)
	}
	cancel()
	outR.Discard()
	if n := reclaim(inW.ch); n > 0 {
		key := "stream.discarded" // left by a root that stopped reading early
		if ok || ctx.Err() != nil {
			key = "input.untaken" // not taken when the run was cut
		}
		env.stats.Add(key, n)
	}
	if ok {
		return rec, env.stats, nil
	}
	return nil, env.stats, ctx.Err()
}
