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
//	ingress: session → bounded queue → round-robin feeder → warm instance
//	egress:  warm instance → demux (routes by session tag, strips it)
//	         → per-session bounded receive queue
//
// Teardown rides the split close protocol: CloseInput (or Release) makes
// the feeder send NewReplicaCloseAck for the session id after the session's
// queued records — FIFO — so the replica drains, its goroutines are
// reclaimed (the "split.session_mux.replicas" gauge decrements), and the
// acknowledgement record surfacing at the demux is the end-of-session
// barrier that completes Recv with done.  Session ids are only reused after
// that barrier, so a recycled id can never reach a draining replica.

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
	notify chan struct{} // feeder wakeup (capacity 1)
	down   chan struct{} // closed when the engine has wound down

	mu       sync.Mutex
	shut     bool
	sessions map[int]*sharedSession // live ids, until the close barrier
	ring     []*sharedSession       // feeder round-robin order
	ringGen  uint64                 // bumped on every ring change
	free     []int                  // ids past their close barrier, reusable
	seq      int

	demuxDone  chan struct{}
	feederDone chan struct{}
}

// newEngine builds the warm instance for one network and starts its feeder
// and demux loops.  The engine's blueprint is the network under the session
// split, compiled once like any other network: every session replica then
// unfolds the same fused, table-routed program an isolated session runs —
// O(barriers) goroutines per session instead of O(stages).
func newEngine(n *Network) (*engine, error) {
	if _, err := n.Plan(); err != nil {
		return nil, err
	}
	// The network's own findings are already on record (PlanErr), and a plan
	// with findings still runs.
	mux, _ := snet.Compile(snet.SessionSplit(sessionMuxName, n.root, sessionTag))
	ctx, cancel := context.WithCancel(context.Background())
	e := &engine{
		net:        n,
		cancel:     cancel,
		ctx:        ctx,
		notify:     make(chan struct{}, 1),
		down:       make(chan struct{}),
		sessions:   map[int]*sharedSession{},
		demuxDone:  make(chan struct{}),
		feederDone: make(chan struct{}),
	}
	e.handle = mux.Start(ctx, n.opts.runOptions()...)
	go e.demux()
	go e.feeder()
	return e, nil
}

// poke wakes the feeder; lossy by design (capacity 1).
func (e *engine) poke() {
	select {
	case e.notify <- struct{}{}:
	default:
	}
}

// open allocates a session slot on the warm engine: an id, two bounded
// queues, a ring entry.  No network machinery is instantiated — the
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
	cap := e.net.opts.queueCap()
	// The feeder polls the ingress queues and sleeps until poked, and a
	// sender pokes after its record is queued — so the queue must be able to
	// take a record with the feeder asleep.  An unbuffered one (BufferSize
	// 0) cannot: the sender would park unseen and never be woken.
	b := &sharedSession{
		eng:      e,
		sid:      sid,
		ingress:  make(chan *snet.Record, max(cap, 1)),
		out:      make(chan *snet.Record, cap),
		inClosed: make(chan struct{}),
		released: make(chan struct{}),
	}
	e.sessions[sid] = b
	e.ring = append(e.ring, b)
	e.ringGen++
	e.net.svcStat.SetMax("engine.sessions", int64(len(e.sessions)))
	return b, nil
}

// ringSnapshot returns the feeder ring, reusing the previous snapshot while
// the ring is unchanged (gen) so a busy steady-state feeder pass costs no
// allocation and no time under the engine lock proportional to S.
func (e *engine) ringSnapshot(prev []*sharedSession, prevGen uint64) ([]*sharedSession, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ringGen == prevGen {
		return prev, prevGen
	}
	out := make([]*sharedSession, len(e.ring))
	copy(out, e.ring)
	return out, e.ringGen
}

// dropFromRing removes a session from the feeder rotation (its close
// acknowledgement has been sent; nothing more will be fed for it).
func (e *engine) dropFromRing(b *sharedSession) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, s := range e.ring {
		if s == b {
			e.ring = append(e.ring[:i], e.ring[i+1:]...)
			e.ringGen++
			return
		}
	}
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

// feeder is the ingress half of the mux: one goroutine round-robins over
// the live sessions' queues, moving at most one record per session per pass
// into the warm instance — ingress fairness, so a firehose session cannot
// starve its neighbours at the shared boundary.  When a session's input has
// finished (CloseInput, Release, or idle reap → Release), the feeder sends
// the session's replica-close acknowledgement after its queued records and
// retires it from the rotation.
func (e *engine) feeder() {
	defer close(e.feederDone)
	bg := context.Background()
	var ring []*sharedSession
	var gen uint64
	for {
		moved := false
		ring, gen = e.ringSnapshot(ring, gen)
		for _, b := range ring {
			if b.drop.Load() {
				// Released: queued input is discarded, not fed.
				for {
					select {
					case r := <-b.ingress:
						snet.ReleaseRecord(r)
						moved = true
						continue
					default:
					}
					break
				}
			}
			select {
			case r := <-b.ingress:
				moved = true
				if b.drop.Load() {
					snet.ReleaseRecord(r)
					continue
				}
				r.SetTag(sessionTag, b.sid)
				if e.handle.SendCtx(bg, r) != nil {
					return // engine cancelled
				}
			default:
				if b.inputDone() && len(b.ingress) == 0 && !b.ackSent {
					b.ackSent = true
					moved = true
					e.dropFromRing(b)
					if e.handle.SendCtx(bg, snet.NewReplicaCloseAck(sessionTag, b.sid)) != nil {
						return
					}
				}
			}
		}
		if !moved {
			select {
			case <-e.notify:
			case <-e.ctx.Done():
				return
			}
		}
	}
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
		case <-b.released:
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
	e.ring = nil
	e.mu.Unlock()
	for _, b := range remaining {
		close(b.out)
	}
	close(e.down)
}

// shutdown cancels the warm instance and joins the mux loops.  Idempotent.
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
	<-e.feederDone
}

// engineClosedBit marks a shared session's input as closed in sendState
// (same discipline as the runtime boundary's Handle.sendState).
const engineClosedBit = int64(1) << 62

// sharedSession is the Shared-mode backend of one Session: a slot on the
// network's warm engine.
type sharedSession struct {
	eng     *engine
	sid     int
	ingress chan *snet.Record
	out     chan *snet.Record

	// sendState guards the input side without blocking senders on a lock:
	// low bits count in-flight sends, engineClosedBit marks CloseInput.
	// The last sender out (or CloseInput itself, with none in flight)
	// closes inClosed, after which the feeder knows the ingress queue is
	// complete and may send the replica-close acknowledgement.
	sendState atomic.Int64
	inClosed  chan struct{}
	inOnce    sync.Once
	released  chan struct{}
	relOnce   sync.Once
	drop      atomic.Bool // release: discard queued input

	ackSent bool // feeder-owned: close acknowledgement dispatched
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
		b.markInputDone()
	}
}

func (b *sharedSession) markInputDone() {
	b.inOnce.Do(func() { close(b.inClosed) })
	b.eng.poke()
}

func (b *sharedSession) inputDone() bool {
	select {
	case <-b.inClosed:
		return true
	default:
		return false
	}
}

func (b *sharedSession) send(ctx context.Context, r *snet.Record) error {
	if err := b.acquireSend(); err != nil {
		return err
	}
	defer b.releaseSend()
	select {
	case b.ingress <- r:
		b.eng.poke()
		return nil
	case <-b.released:
		return snet.ErrCancelled
	case <-b.eng.down:
		return snet.ErrCancelled
	case <-b.eng.ctx.Done():
		return snet.ErrCancelled
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *sharedSession) sendBatch(ctx context.Context, recs []*snet.Record) (int, error) {
	for i, r := range recs {
		if err := b.send(ctx, r); err != nil {
			return i, err
		}
	}
	return len(recs), nil
}

func (b *sharedSession) closeInput() {
	for {
		s := b.sendState.Load()
		if s&engineClosedBit != 0 {
			return
		}
		if b.sendState.CompareAndSwap(s, s|engineClosedBit) {
			if s == 0 {
				b.markInputDone()
			}
			b.eng.poke()
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
	case <-b.released:
		return nil, false, snet.ErrCancelled
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// release retires the session: further sends fail, queued input is
// discarded by the feeder, in-flight output is dropped at the demux, and
// the replica is reclaimed by the warm engine through the close protocol —
// asynchronously, in FIFO position behind the session's in-flight work.
func (b *sharedSession) release() {
	b.drop.Store(true)
	b.closeInput()
	b.relOnce.Do(func() { close(b.released) })
	b.eng.poke()
}

func (b *sharedSession) handle() *snet.Handle  { return b.eng.handle }
func (b *sharedSession) runStats() *snet.Stats { return nil }
