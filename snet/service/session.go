package service

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/snet"
)

// Session is one client's use of a registered network: lifecycle state plus
// a mode-specific backend.  The lifecycle is
//
//	Open → Send* → CloseInput → Recv* (until done) → Release
//
// In Isolated mode the backend is a private run of the network's plan
// (Plan.Start per session); in Shared mode it is one replica slot of the network's warm
// engine (see engine.go) and Open never instantiates a graph.  Records enter
// the same way in both: Handle.SendBatch on the run — the session's own, or
// the engine's with the session tag set.
//
// Release is mandatory and idempotent.  Isolated: it cancels the run,
// which unwinds every node goroutine of the instance.  Shared: it
// retires the session's replica through the split close protocol — the
// engine keeps running.  Send and Recv additionally honour the caller's
// context, so a slow network exerts backpressure on the client without
// wedging it.
//
// A Session is safe for concurrent use, including racing Send/CloseInput/
// Release from independent HTTP requests.
type Session struct {
	id     string
	net    *Network
	svc    *Service
	back   backend
	opened time.Time

	mu       sync.Mutex
	released bool
	done     chan struct{} // closed once Release has completed
	sent     int64
	received int64

	lastActive atomic.Int64 // unix nanos of the last Send/Recv (or Open)
	inflight   atomic.Int64 // Send/Recv calls currently blocked in this session
}

// backend is the mode-specific half of a session: how records enter and
// leave the network, and how the session's compute is torn down.
type backend interface {
	sendBatch(ctx context.Context, recs []*snet.Record) (int, error)
	closeInput()
	// recv delivers the next output record; done reports that the
	// session's output has drained (after closeInput) or the session is
	// gone.
	recv(ctx context.Context) (rec *snet.Record, done bool, err error)
	// release tears the session's compute down.  Isolated backends block
	// until the instance has wound down; shared backends retire the
	// session's replica asynchronously (the engine reclaims it in FIFO
	// position behind the session's in-flight work).
	release()
	// handle exposes the underlying run — the session's own instance, or
	// the network's shared engine.
	handle() *snet.Handle
	// runStats returns per-run statistics to fold into the network on
	// release, or nil when the backend's run outlives the session (shared
	// mode aggregates live engine stats in Service.Stats instead).
	runStats() *snet.Stats
}

// isolatedBackend is the classic one-instance-per-session mode: the session
// owns a full network run.
type isolatedBackend struct {
	h *snet.Handle
}

func (b *isolatedBackend) sendBatch(ctx context.Context, recs []*snet.Record) (int, error) {
	return b.h.SendBatch(ctx, recs)
}

func (b *isolatedBackend) closeInput() { b.h.Close() }

func (b *isolatedBackend) recv(ctx context.Context) (*snet.Record, bool, error) {
	select {
	case r, ok := <-b.h.Out():
		if !ok {
			return nil, true, nil
		}
		return r, false, nil
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

func (b *isolatedBackend) release() {
	b.h.Cancel()
	b.h.Wait()
}

func (b *isolatedBackend) handle() *snet.Handle  { return b.h }
func (b *isolatedBackend) runStats() *snet.Stats { return b.h.Stats() }

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

// Open starts a new session of the named network.  The session slot is
// claimed against the network's MaxSessions cap first; then, depending on
// the network's SessionMode, either a fresh instance is started (Isolated)
// or a replica slot of the warm shared engine is allocated (Shared — a map
// insert, no graph instantiation).
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
	var back backend
	if n.opts.SessionMode == Shared {
		eng, err := n.sharedEngine()
		if err != nil {
			n.releaseSlot()
			n.svcStat.Add("sessions.build_errors", 1)
			return nil, fmt.Errorf("%w: network %q: %v", ErrBuild, netName, err)
		}
		sb, err := eng.open()
		if err != nil {
			n.releaseSlot()
			return nil, err
		}
		back = sb
	} else {
		// Sessions share the network's compiled plan: the blueprint is built
		// and type-checked once, and every instance dispatches through the
		// same precomputed routing tables.
		plan, err := n.Plan()
		if err != nil {
			n.releaseSlot()
			n.svcStat.Add("sessions.build_errors", 1)
			return nil, fmt.Errorf("%w: network %q: %v", ErrBuild, netName, err)
		}
		back = &isolatedBackend{h: plan.Start(context.Background(), n.runOpts...)}
	}
	sess := &Session{
		id:     id,
		net:    n,
		svc:    s,
		back:   back,
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

// Handle exposes the underlying running network (for its Stats).  In Shared
// mode this is the network's engine — shared by every session of the
// network — so treat it as read-only.
func (s *Session) Handle() *snet.Handle { return s.back.handle() }

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
// blocks on backpressure — stream buffers are bounded in both modes — until
// the records are accepted, the caller's ctx is cancelled, or the session is
// released.  It returns how many records were accepted; on ctx expiry or
// release that can be a frame-aligned prefix.  A batch with a label of the
// runtime's reserved namespace in it is refused whole (clients must not
// spoof session or replica control records).  Of n, err: recs[:n] belong to
// the network, recs[n:] stay the caller's (to retry, or to hand back with
// snet.ReleaseRecord).
func (s *Session) SendBatch(ctx context.Context, recs []*snet.Record) (int, error) {
	if err := s.admit(recs); err != nil {
		return 0, err
	}
	return s.sendAdmitted(ctx, recs)
}

// admit refuses a batch with a reserved label in it.
func (s *Session) admit(recs []*snet.Record) error {
	for _, r := range recs {
		if r.HasReservedLabel() {
			s.net.svcStat.Add("records.reserved_rejected", 1)
			return fmt.Errorf("%w: record carries a reserved %q label",
				ErrReservedLabel, snet.ReservedTagPrefix)
		}
	}
	return nil
}

// sendAdmitted streams admitted records and counts those the network
// accepted.
func (s *Session) sendAdmitted(ctx context.Context, recs []*snet.Record) (int, error) {
	s.enter()
	defer s.exit()
	accepted, err := s.back.sendBatch(ctx, recs)
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
func (s *Session) CloseInput() { s.back.closeInput() }

// Recv delivers the next output record.  done reports that the session has
// drained (after CloseInput) or was released; err is the caller's context
// error on timeout/cancellation.
func (s *Session) Recv(ctx context.Context) (rec *snet.Record, done bool, err error) {
	s.enter()
	defer s.exit()
	rec, done, err = s.back.recv(ctx)
	if rec != nil {
		s.mu.Lock()
		s.received++
		s.mu.Unlock()
		s.net.svcStat.Add("records.out", 1)
	}
	return rec, done, err
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

// Release ends the session.  Isolated: the run context is cancelled
// (dropping in-flight records) and the call returns once the instance's
// goroutines have unwound.  Shared: the session's replica is retired
// through the split close protocol — what the engine has accepted runs on,
// its output is discarded at the engine's demux, and the replica is reclaimed
// by the warm engine asynchronously; the call returns promptly.  Idempotent
// in both modes; every caller, including losers of a release race, returns
// only after the session's teardown has been initiated and its slot freed.
func (s *Session) Release() {
	s.mu.Lock()
	if s.released {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.released = true
	s.mu.Unlock()

	s.back.release()
	s.svc.mu.Lock()
	delete(s.svc.sessions, s.id)
	s.svc.mu.Unlock()
	s.net.release(s)
	close(s.done)
}
