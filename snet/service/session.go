package service

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/snet"
)

// Session is one client's use of a registered network: lifecycle state plus
// a private run of the network's plan.  The lifecycle is
//
//	Open → Send* → CloseInput → Recv* (until done) → Release
//
// Open claims a slot and resolves the plan; the run starts on the session's
// first SendBatch, CloseInput, Recv or Handle, so an idle session holds no
// goroutine.  Release is mandatory and idempotent: it cancels the run, which
// unwinds every node goroutine of the instance.  Send and Recv additionally
// honour the caller's context, so a slow network exerts backpressure on the
// client without wedging it.
//
// A Session is safe for concurrent use, including racing Send/CloseInput/
// Release from independent HTTP requests.
type Session struct {
	id     string
	net    *Network
	svc    *Service
	plan   *snet.Plan
	opened time.Time

	start sync.Once
	h     *snet.Handle // the run: nil until first use, and for good once released unused

	mu       sync.Mutex
	released bool
	done     chan struct{} // closed once Release has completed
	sent     int64
	received int64

	lastActive atomic.Int64 // unix nanos of the last Send/Recv (or Open)
	inflight   atomic.Int64 // Send/Recv calls currently blocked in this session
}

// run returns the session's run, starting it on first use; nil once the
// session was released before its first use.
func (s *Session) run() *snet.Handle {
	s.start.Do(func() { s.h = s.plan.Start(context.Background(), s.net.runOpts...) })
	return s.h
}

// touch records client activity for the idle reaper.
func (s *Session) touch() { s.lastActive.Store(time.Now().UnixNano()) }

// enter/exit bracket a blocking client call: a session with a call in
// flight is active by definition (a client is connected and waiting on
// backpressure or results), however long the call blocks, and must not be
// reaped out from under it.
func (s *Session) enter() { s.inflight.Add(1) }
func (s *Session) exit()  { s.inflight.Add(-1); s.touch() }

// reapable reports whether the session has been idle — no call in flight,
// no activity — for longer than limit.
func (s *Session) reapable(limit time.Duration) bool {
	if s.inflight.Load() > 0 {
		return false
	}
	return time.Duration(time.Now().UnixNano()-s.lastActive.Load()) > limit
}

// Open opens a new session of the named network: the session slot is claimed
// against the network's MaxSessions cap, and the network's plan is resolved
// (built and compiled on the network's first use), so a builder failure is
// Open's.  The run itself starts on the session's first use.
func (s *Service) Open(netName string) (*Session, error) {
	n, err := s.Network(netName)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.down {
		s.mu.Unlock()
		return nil, ErrShutdown
	}
	s.opening.Add(1) // under the lock, after the down check
	defer s.opening.Done()
	s.seq++
	id := "s" + strconv.FormatUint(s.seq, 10)
	s.mu.Unlock()

	if err := n.acquire(); err != nil {
		return nil, err
	}
	// Sessions share the network's compiled plan: the blueprint is built and
	// type-checked once, and every run dispatches through the same
	// precomputed routing tables.
	plan, err := n.Plan()
	if err != nil {
		return nil, n.buildFailed(err)
	}
	sess := &Session{
		id:     id,
		net:    n,
		svc:    s,
		plan:   plan,
		opened: time.Now(),
		done:   make(chan struct{}),
	}
	sess.touch()
	s.mu.Lock()
	if s.down { // raced with Shutdown: unwind immediately
		s.mu.Unlock()
		sess.Release()
		return nil, ErrShutdown
	}
	s.sessions[id] = sess
	s.startReaperLocked()
	s.mu.Unlock()
	return sess, nil
}

// ID returns the session identifier used by the HTTP API.
func (s *Session) ID() string { return s.id }

// Network returns the network definition this session runs.
func (s *Session) Network() *Network { return s.net }

// Handle exposes the session's run (for its Stats), starting it if this is
// the session's first use; nil once the session was released unused.
func (s *Session) Handle() *snet.Handle { return s.run() }

// Counts reports how many records have been accepted and delivered.
func (s *Session) Counts() (sent, received int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sent, s.received
}

// Send streams one record into the session's network: SendBatch of one.
func (s *Session) Send(ctx context.Context, r *snet.Record) error {
	_, err := s.SendBatch(ctx, []*snet.Record{r})
	return err
}

// SendBatch streams a burst of records into the session's network as
// transport frames (one stream synchronization per StreamBatch records).  It
// blocks on backpressure — stream buffers are bounded — until the records are
// accepted, the caller's ctx is cancelled, or the session is released.  It
// returns how many records were accepted; on ctx expiry or release that can
// be a frame-aligned prefix.  Of n, err: recs[:n] belong to the network,
// recs[n:] stay the caller's (to retry, or to hand back with
// snet.ReleaseRecord).
func (s *Session) SendBatch(ctx context.Context, recs []*snet.Record) (int, error) {
	h := s.run()
	if h == nil {
		return 0, snet.ErrCancelled
	}
	s.enter()
	defer s.exit()
	accepted, err := h.SendBatch(ctx, recs)
	if accepted > 0 {
		s.mu.Lock()
		s.sent += int64(accepted)
		s.mu.Unlock()
		s.net.svcStat.Add("records.in", int64(accepted))
	}
	return accepted, err
}

// CloseInput signals end-of-input: once in-flight records drain, the
// session's output winds down and Recv reports done.  Idempotent.
func (s *Session) CloseInput() {
	if h := s.run(); h != nil {
		h.Close()
	}
}

// Recv delivers the next output record.  done reports that the session has
// drained (after CloseInput) or was released; err is the caller's context
// error on timeout/cancellation.
func (s *Session) Recv(ctx context.Context) (rec *snet.Record, done bool, err error) {
	h := s.run()
	if h == nil {
		return nil, true, nil
	}
	s.enter()
	defer s.exit()
	select {
	case r, ok := <-h.Out():
		if !ok {
			return nil, true, nil
		}
		s.mu.Lock()
		s.received++
		s.mu.Unlock()
		s.net.svcStat.Add("records.out", 1)
		return r, false, nil
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// Drain collects up to max output records (max <= 0: unlimited), returning
// early when the session winds down or ctx expires.  On expiry the
// already-collected batch is returned together with the context error so
// the caller can decide what to do with both.  Delivery is at-most-once: a
// record handed out in a batch has been consumed from the stream even if
// the caller never processes it (e.g. an HTTP client that disconnected).
func (s *Session) Drain(ctx context.Context, max int) (recs []*snet.Record, done bool, err error) {
	for max <= 0 || len(recs) < max {
		rec, fin, rerr := s.Recv(ctx)
		if rerr != nil {
			return recs, false, rerr
		}
		if fin {
			return recs, true, nil
		}
		recs = append(recs, rec)
	}
	return recs, false, nil
}

// Release ends the session: the run context is cancelled (dropping
// in-flight records) and the call returns once the run's goroutines have
// unwound; a session released before its first use starts no run and folds
// no run statistics.  Idempotent; every caller, including losers of a
// release race, returns only after the session's teardown has completed and
// its slot is freed.
func (s *Session) Release() {
	s.mu.Lock()
	if s.released {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.released = true
	s.mu.Unlock()

	s.start.Do(func() {}) // no run starts after this
	var rs *snet.Stats
	if s.h != nil {
		s.h.Cancel()
		s.h.Wait()
		rs = s.h.Stats()
	}
	s.svc.mu.Lock()
	delete(s.svc.sessions, s.id)
	s.svc.mu.Unlock()
	s.net.release(s.opened, rs)
	close(s.done)
}
