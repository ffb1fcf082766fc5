package service

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/snet"
)

// This file implements Shared session mode: one long-lived, warm network
// instance per registered network, multiplexing every session over indexed
// parallel replication — the paper's own per-key isolation mechanism
// (A !! <tag>, §4) turned into a serving architecture.
//
// The engine wraps the user's root in SessionSplit(root, "__snet_session").
// Opening a session allocates a session id (a map insert — no graph
// instantiation); the first record carrying a fresh id makes the split
// unfold a private replica of the user's network, so per-session state
// (star unfolding, synchrocells) stays isolated exactly as in Isolated
// mode.  Flow inheritance carries the reserved session tag through every
// box untouched.
//
//	ingress: session → Handle.SendBatch on the warm instance (the
//	         sender sets the session tag; blocked senders of every session
//	         wait in arrival order on the instance's one input stream)
//	egress:  warm instance → demux (routes by session tag, strips it)
//	         → per-session bounded receive queue
//
// Teardown rides the split close protocol: whoever closes a session's input
// side — CloseInput (or Release) with no send in flight, otherwise the last
// sender out — sends NewReplicaCloseAck for the session id.  Every send of
// the session had returned by then, so the acknowledgement follows the
// session's records on the input stream — FIFO — and the replica drains, its
// goroutines are reclaimed (the "split.session_mux.replicas" gauge
// decrements), and the acknowledgement record surfacing at the demux is the
// end-of-session barrier that completes Recv with done.  Session ids are
// only reused after that barrier, so a recycled id can never reach a
// draining replica.

// sessionTag is the reserved index tag of the session-multiplexing split.
const sessionTag = snet.ReservedTagPrefix + "session"

// sessionMuxName names the engine's split in run statistics:
// "split.session_mux.replicas" is the live-session replica gauge.
const sessionMuxName = "session_mux"

// engine is one network's warm shared instance plus the session mux state.
type engine struct {
	net    *Network
	handle *snet.Handle
	cancel context.CancelFunc
	ctx    context.Context

	mu       sync.Mutex
	shut     bool
	sessions map[int]*sharedSession // live ids, until the close barrier
	free     []int                  // ids past their close barrier, reusable
	seq      int

	demuxDone chan struct{}
}

// newEngine builds the warm instance for one network and starts its demux
// loop, the engine's one goroutine of its own.  The engine's blueprint is
// the network under the session split, compiled once like any other network:
// every session replica then unfolds the same fused, table-routed program an
// isolated session runs — O(barriers) goroutines per session instead of
// O(stages).
func newEngine(n *Network) (*engine, error) {
	if _, err := n.Plan(); err != nil {
		return nil, err
	}
	// The network's own findings are already on record (PlanErr), and a plan
	// with findings still runs.
	mux, _ := snet.Compile(snet.SessionSplit(sessionMuxName, n.root, sessionTag))
	ctx, cancel := context.WithCancel(context.Background())
	e := &engine{
		net:       n,
		cancel:    cancel,
		ctx:       ctx,
		sessions:  map[int]*sharedSession{},
		demuxDone: make(chan struct{}),
	}
	e.handle = mux.Start(ctx, n.runOpts...)
	go e.demux()
	return e, nil
}

// open allocates a session slot on the warm engine: an id, a bounded
// receive queue, a context.  No network machinery is instantiated — the
// replica unfolds lazily on the session's first record.
func (e *engine) open() (*sharedSession, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.shut {
		return nil, ErrShutdown
	}
	var sid int
	if n := len(e.free); n > 0 {
		sid, e.free = e.free[n-1], e.free[:n-1]
	} else {
		e.seq++
		sid = e.seq
	}
	b := &sharedSession{eng: e, sid: sid, out: make(chan *snet.Record, e.net.opts.streamBuffer())}
	b.ctx, b.cancel = context.WithCancel(context.Background())
	e.sessions[sid] = b
	e.net.svcStat.SetMax("engine.sessions", int64(len(e.sessions)))
	return b, nil
}

// unregister frees a session id once its close barrier has surfaced at the
// demux: the replica has fully drained, so the id is safe to reuse.
func (e *engine) unregister(b *sharedSession) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, live := e.sessions[b.sid]; !live {
		return
	}
	delete(e.sessions, b.sid)
	e.free = append(e.free, b.sid)
}

// sessionCount reports the number of session ids not yet past their close
// barrier.
func (e *engine) sessionCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sessions)
}

// demux is the egress half of the mux: it routes every output record of the
// warm instance to its session's bounded receive queue by the reserved
// session tag (stripped before delivery).  The replica-close
// acknowledgement is the end-of-session barrier: it completes the session's
// output stream and frees the id.  Records of a released session are
// discarded (counted under "engine.dropped"), which also keeps one dead
// session from head-of-line-blocking the shared output stream.
func (e *engine) demux() {
	defer close(e.demuxDone)
	stat := e.net.svcStat
	for r := range e.handle.Out() {
		sid, ok := r.Tag(sessionTag)
		if !ok {
			stat.Add("engine.stray", 1)
			continue
		}
		e.mu.Lock()
		b := e.sessions[sid]
		e.mu.Unlock()
		if b == nil {
			stat.Add("engine.stray", 1)
			continue
		}
		if snet.IsReplicaClose(r) {
			e.unregister(b)
			close(b.out)
			continue
		}
		r.DeleteTag(sessionTag)
		select {
		case b.out <- r:
		case <-b.ctx.Done():
			stat.Add("engine.dropped", 1)
		case <-e.ctx.Done():
			// cancelled mid-route; the closed Out ends the loop next spin
		}
	}
	// Engine wound down (service shutdown or cancellation): complete every
	// remaining session's output stream so blocked clients unwind.
	e.mu.Lock()
	remaining := e.sessions
	e.sessions = map[int]*sharedSession{}
	e.mu.Unlock()
	for _, b := range remaining {
		close(b.out)
	}
}

// shutdown cancels the warm instance and joins the demux loop.  Idempotent.
func (e *engine) shutdown() {
	e.mu.Lock()
	already := e.shut
	e.shut = true
	e.mu.Unlock()
	e.cancel()
	if !already {
		e.handle.Wait()
	}
	<-e.demuxDone
}

// engineClosedBit marks a shared session's input as closed in sendState
// (same discipline as the runtime boundary's Handle.sendState).
const engineClosedBit = int64(1) << 62

// sharedSession is the Shared-mode backend of one Session: a slot on the
// network's warm engine.  Its records enter through the engine's handle
// exactly as an isolated session's enter through its own.
type sharedSession struct {
	eng *engine
	sid int
	out chan *snet.Record

	// ctx ends with the session (release cancels it): a Recv, or a Send
	// parked on backpressure, returns ErrCancelled, and the demux drops
	// what the session's replica still emits.
	ctx    context.Context
	cancel context.CancelFunc

	// sendState guards the input side without blocking senders on a lock:
	// low bits count in-flight sends, engineClosedBit marks CloseInput.
	// The last sender out (or CloseInput itself, with none in flight)
	// closes the input side: it sends the replica-close acknowledgement.
	sendState atomic.Int64
}

func (b *sharedSession) acquireSend() error {
	for {
		s := b.sendState.Load()
		if s&engineClosedBit != 0 {
			return snet.ErrClosed
		}
		if b.sendState.CompareAndSwap(s, s+1) {
			return nil
		}
	}
}

func (b *sharedSession) releaseSend() {
	if b.sendState.Add(-1) == engineClosedBit {
		b.sendCloseAck()
	}
}

// sendCloseAck ends the session's input: every send of the session has
// returned, so the acknowledgement follows its records on the engine's input
// stream.  That stream may be full and CloseInput/Release never block, hence
// a goroutine of its own; it ends with the engine's run at the latest.
func (b *sharedSession) sendCloseAck() {
	go func() {
		// An error means the engine is gone, and the session's replica with it.
		_ = b.eng.handle.SendCtx(context.Background(), snet.NewReplicaCloseAck(sessionTag, b.sid))
	}()
}

func (b *sharedSession) sendBatch(ctx context.Context, recs []*snet.Record) (int, error) {
	if err := b.acquireSend(); err != nil {
		return 0, err
	}
	defer b.releaseSend()
	// The handle waits under one context and a send must end with its
	// session too: the session's context stands in for a caller's that can
	// never end, and cuts short one that can.
	if ctx.Done() == nil {
		ctx = b.ctx
	} else {
		merged, cancel := context.WithCancel(ctx)
		defer cancel()
		defer context.AfterFunc(b.ctx, cancel)()
		ctx = merged
	}
	for _, r := range recs {
		r.SetTag(sessionTag, b.sid)
	}
	n, err := b.eng.handle.SendBatch(ctx, recs)
	if err != nil {
		// What the engine did not take goes back to the caller as it came,
		// and the session's own end reads as a cancelled run does in
		// Isolated mode, whichever context carried it.
		for _, r := range recs[n:] {
			r.DeleteTag(sessionTag)
		}
		if b.ctx.Err() != nil {
			err = snet.ErrCancelled
		}
	}
	return n, err
}

func (b *sharedSession) closeInput() {
	for {
		s := b.sendState.Load()
		if s&engineClosedBit != 0 {
			return
		}
		if b.sendState.CompareAndSwap(s, s|engineClosedBit) {
			if s == 0 {
				b.sendCloseAck() // no send in flight
			}
			return
		}
	}
}

func (b *sharedSession) recv(ctx context.Context) (*snet.Record, bool, error) {
	select {
	case r, ok := <-b.out:
		if !ok {
			return nil, true, nil
		}
		return r, false, nil
	case <-b.ctx.Done():
		return nil, false, snet.ErrCancelled
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// release retires the session: further sends fail, parked ones return,
// in-flight output is dropped at the demux, and the replica is reclaimed by
// the warm engine through the close protocol — asynchronously, in FIFO
// position behind the records the engine has accepted.
func (b *sharedSession) release() {
	b.closeInput()
	b.cancel()
}

func (b *sharedSession) handle() *snet.Handle  { return b.eng.handle }
func (b *sharedSession) runStats() *snet.Stats { return nil }
