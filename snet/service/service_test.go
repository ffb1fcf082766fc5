package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/snet"
)

// incNet builds a one-box network that increments tag <n>.
func incNet(Options) (snet.Node, error) {
	return snet.NewBox("inc", snet.MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *snet.Emitter) error {
			return out.Out(1, args[0].(int)+1)
		}), nil
}

// gatedNet builds a one-box network that blocks every record on the gate —
// the "slow consumer" for backpressure tests.
func gatedNet(gate chan struct{}) Builder {
	return func(Options) (snet.Node, error) {
		return snet.NewBox("gated", snet.MustParseSignature("(<n>) -> (<n>)"),
			func(args []any, out *snet.Emitter) error {
				select {
				case <-gate:
				case <-out.Done():
					return snet.ErrCancelled
				}
				return out.Out(1, args[0].(int))
			}), nil
	}
}

func recN(n int) *snet.Record { return snet.NewRecord().SetTag("n", n) }

// blockedNet builds a one-box network whose invocations wait until `need`
// of them are in flight, so the test can prove the BoxWorkers option
// reached the runtime's concurrent box engine.
func blockedNet(need int32) Builder {
	return func(Options) (snet.Node, error) {
		var inflight int32
		return snet.NewBox("gate", snet.MustParseSignature("(<n>) -> (<n>)"),
			func(args []any, out *snet.Emitter) error {
				for atomic.AddInt32(&inflight, 1); atomic.LoadInt32(&inflight) < need; {
					select {
					case <-out.Done():
						return snet.ErrCancelled
					case <-time.After(100 * time.Microsecond):
					}
				}
				return out.Out(1, args[0].(int))
			}), nil
	}
}

// TestBoxWorkersOptionReachesRuntime opens a session of a network whose box
// only completes when BoxWorkers invocations overlap, and checks the
// engine's counters surface through the aggregated run stats.
func TestBoxWorkersOptionReachesRuntime(t *testing.T) {
	svc := New()
	svc.Register("wide", "overlap gate", Options{BufferSize: 4, BoxWorkers: 3}, blockedNet(3), nil)
	sess, err := svc.Open("wide")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 6; i++ {
		if err := sess.Send(ctx, recN(i)); err != nil {
			t.Fatal(err)
		}
	}
	sess.CloseInput()
	recs, done, err := sess.Drain(ctx, 0)
	if err != nil || !done || len(recs) != 6 {
		t.Fatalf("drain: %d records done=%v err=%v", len(recs), done, err)
	}
	sess.Release()
	stats := svc.Stats()
	if stats["run.wide.box.gate.concurrency.max"] != 3 {
		t.Fatalf("concurrency.max = %d, want 3", stats["run.wide.box.gate.concurrency.max"])
	}
	if hw := stats["run.wide.box.gate.inflight.max"]; hw < 3 {
		t.Fatalf("inflight.max = %d, want >= 3", hw)
	}
	if stats["run.wide.box.gate.emitted"] != 6 {
		t.Fatalf("emitted = %d, want 6", stats["run.wide.box.gate.emitted"])
	}
}

func TestSessionLifecycle(t *testing.T) {
	svc := New()
	svc.Register("inc", "increment", Options{BufferSize: 4}, incNet, nil)
	sess, err := svc.Open("inc")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := sess.Send(ctx, recN(i)); err != nil {
			t.Fatal(err)
		}
	}
	sess.CloseInput()
	recs, done, err := sess.Drain(ctx, 0)
	if err != nil || !done || len(recs) != 10 {
		t.Fatalf("drain: %d records done=%v err=%v", len(recs), done, err)
	}
	got := map[int]bool{}
	for _, r := range recs {
		n, _ := r.Tag("n")
		got[n] = true
	}
	for i := 1; i <= 10; i++ {
		if !got[i] {
			t.Fatalf("missing output <n>=%d in %v", i, recs)
		}
	}
	sess.Release()
	if svc.SessionCount() != 0 {
		t.Fatalf("session still registered after release")
	}
	stats := svc.Stats()
	if stats["net.inc.records.in"] != 10 || stats["net.inc.records.out"] != 10 {
		t.Fatalf("stats: %v", stats)
	}
	if stats["net.inc.sessions.opened"] != 1 || stats["net.inc.sessions.closed"] != 1 {
		t.Fatalf("session stats: %v", stats)
	}
	if stats["run.inc.box.inc.calls"] != 10 {
		t.Fatalf("aggregated run stats missing: %v", stats)
	}
}

// TestBackpressureBoundedBuffer verifies that a slow consumer propagates
// backpressure to Send: with a small buffer only a handful of records are
// accepted quickly, later sends time out on the caller's context, and no
// accepted record is lost once the consumer resumes.
func TestBackpressureBoundedBuffer(t *testing.T) {
	gate := make(chan struct{})
	svc := New()
	svc.Register("slow", "gated box", Options{BufferSize: 2}, gatedNet(gate), nil)
	sess, err := svc.Open("slow")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Release()

	accepted, timedOut := 0, 0
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		err := sess.Send(ctx, recN(i))
		cancel()
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, context.DeadlineExceeded):
			timedOut++
		default:
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Capacity while the box is blocked: the input buffer (2) plus the
	// record held by the box and handoff slack.  All 10 must not fit.
	if accepted > 5 {
		t.Fatalf("buffer cap not respected: %d of 10 sends accepted with BufferSize=2", accepted)
	}
	if timedOut == 0 {
		t.Fatalf("expected at least one send to block on backpressure")
	}

	close(gate) // consumer resumes
	sess.CloseInput()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	recs, done, err := sess.Drain(ctx, 0)
	if err != nil || !done {
		t.Fatalf("drain: done=%v err=%v", done, err)
	}
	if len(recs) != accepted {
		t.Fatalf("lost records: accepted %d, drained %d", accepted, len(recs))
	}
}

// TestDrainPartialOnDeadline: a deadline mid-drain returns the partial
// batch together with the context error (at-most-once delivery).
func TestDrainPartialOnDeadline(t *testing.T) {
	svc := New()
	svc.Register("inc", "", Options{BufferSize: 4}, incNet, nil)
	sess, err := svc.Open("inc")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Release()
	for i := 0; i < 3; i++ {
		if err := sess.Send(context.Background(), recN(i)); err != nil {
			t.Fatal(err)
		}
	}
	// input stays open: after 3 records the stream goes quiet
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	recs, done, err := sess.Drain(ctx, 0)
	if !errors.Is(err, context.DeadlineExceeded) || done {
		t.Fatalf("done=%v err=%v", done, err)
	}
	if len(recs) != 3 {
		t.Fatalf("partial batch: %d records, want 3", len(recs))
	}
}

func TestMaxSessions(t *testing.T) {
	svc := New()
	svc.Register("inc", "", Options{MaxSessions: 2}, incNet, nil)
	s1, err := svc.Open("inc")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := svc.Open("inc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Open("inc"); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("third open: %v, want ErrSessionLimit", err)
	}
	s1.Release()
	s3, err := svc.Open("inc")
	if err != nil {
		t.Fatalf("open after release: %v", err)
	}
	s2.Release()
	s3.Release()
	stats := svc.Stats()
	if stats["net.inc.sessions.rejected"] != 1 {
		t.Fatalf("rejected counter: %v", stats)
	}
	if stats["net.inc.sessions.active.max"] != 2 {
		t.Fatalf("active high-water mark: %v", stats)
	}
}

func TestUnknownNames(t *testing.T) {
	svc := New()
	if _, err := svc.Open("nope"); !errors.Is(err, ErrUnknownNetwork) {
		t.Fatalf("open: %v", err)
	}
	if _, err := svc.Session("s1"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("session: %v", err)
	}
}

// TestConcurrentSessions runs many independent sessions of one shared
// network definition at once (the snetd serving scenario) and checks that
// every session sees exactly its own results.
func TestConcurrentSessions(t *testing.T) {
	svc := New()
	svc.Register("inc", "", Options{BufferSize: 4}, incNet, nil)
	const clients = 64
	const perClient = 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess, err := svc.Open("inc")
			if err != nil {
				errs <- err
				return
			}
			defer sess.Release()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			go func() {
				for i := 0; i < perClient; i++ {
					if sess.Send(ctx, recN(c*1000+i)) != nil {
						return
					}
				}
				sess.CloseInput()
			}()
			recs, done, err := sess.Drain(ctx, 0)
			if err != nil || !done || len(recs) != perClient {
				errs <- fmt.Errorf("client %d: %d records done=%v err=%v", c, len(recs), done, err)
				return
			}
			for _, r := range recs {
				n, _ := r.Tag("n")
				if (n-1)/1000 != c {
					errs <- fmt.Errorf("client %d received foreign record <n>=%d", c, n)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	stats := svc.Stats()
	if got := stats["net.inc.records.out"]; got != clients*perClient {
		t.Fatalf("records.out = %d, want %d", got, clients*perClient)
	}
	if stats["net.inc.sessions.opened"] != clients || stats["net.inc.sessions.closed"] != clients {
		t.Fatalf("session accounting: %v", stats)
	}
}

// goroutine-leak helpers, following internal/core/leak_test.go.
func goroutineCount() int {
	for i := 0; i < 10; i++ {
		runtime.Gosched()
	}
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d > %d\n%s", runtime.NumGoroutine(), want, buf[:n])
}

// TestShutdownNoLeaks opens sessions with records still in flight (some
// blocked on a closed gate, none drained) and shuts the service down; every
// network goroutine must unwind.
func TestShutdownNoLeaks(t *testing.T) {
	base := goroutineCount()
	gate := make(chan struct{}) // never opened
	svc := New()
	svc.Register("slow", "", Options{BufferSize: 2}, gatedNet(gate), nil)
	svc.Register("inc", "", Options{BufferSize: 2}, incNet, nil)
	for i := 0; i < 8; i++ {
		name := "slow"
		if i%2 == 0 {
			name = "inc"
		}
		sess, err := svc.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			_ = sess.Send(ctx, recN(j)) // may time out on the gated net
			cancel()
		}
	}
	svc.Shutdown()
	if _, err := svc.Open("inc"); !errors.Is(err, ErrShutdown) {
		t.Fatalf("open after shutdown: %v", err)
	}
	waitForGoroutines(t, base+3)
	if svc.SessionCount() != 0 {
		t.Fatalf("sessions survived shutdown")
	}
}

// TestConcurrentSendCloseRelease hammers one session's input side from
// many goroutines while another closes and releases it — the HTTP layer's
// worst case (concurrent /records, /close and DELETE on one session id).
// The runtime must never panic on "send on closed channel"; sends after
// close fail with ErrClosed.
func TestConcurrentSendCloseRelease(t *testing.T) {
	for i := 0; i < 20; i++ {
		svc := New()
		svc.Register("inc", "", Options{BufferSize: 1}, incNet, nil)
		sess, err := svc.Open("inc")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx := context.Background()
				for j := 0; j < 50; j++ {
					if err := sess.Send(ctx, recN(j)); err != nil {
						if !errors.Is(err, snet.ErrClosed) && !errors.Is(err, snet.ErrCancelled) {
							t.Errorf("send: %v", err)
						}
						return
					}
				}
			}()
		}
		go func() {
			for r := range sess.Handle().Out() {
				_ = r
			}
		}()
		sess.CloseInput()
		sess.Release()
		wg.Wait()
	}
}

// TestIdleSessionsReaped: abandoned sessions (no DELETE, no activity) are
// released by the reaper so they cannot pin MaxSessions slots forever.
func TestIdleSessionsReaped(t *testing.T) {
	svc := New()
	svc.reapEvery = 20 * time.Millisecond
	svc.Register("inc", "", Options{MaxSessions: 2, IdleTimeout: 50 * time.Millisecond}, incNet, nil)
	if _, err := svc.Open("inc"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Open("inc"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Open("inc"); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("expected cap hit, got %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.SessionCount() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := svc.SessionCount(); n != 0 {
		t.Fatalf("%d sessions survived the reaper", n)
	}
	stats := svc.Stats()
	if stats["net.inc.sessions.reaped"] != 2 {
		t.Fatalf("reaped counter: %v", stats)
	}
	if _, err := svc.Open("inc"); err != nil { // slots freed again
		t.Fatalf("open after reap: %v", err)
	}
	svc.Shutdown()
}

// TestInFlightCallNotReaped: a client blocked inside Send/Recv past the
// idle timeout is active, not idle — the reaper must leave it alone.
func TestInFlightCallNotReaped(t *testing.T) {
	gate := make(chan struct{})
	svc := New()
	svc.reapEvery = 20 * time.Millisecond
	svc.Register("slow", "", Options{BufferSize: 0, IdleTimeout: 50 * time.Millisecond},
		gatedNet(gate), nil)
	sess, err := svc.Open("slow")
	if err != nil {
		t.Fatal(err)
	}
	recvDone := make(chan error, 1)
	go func() { // long result poll, blocked well past IdleTimeout
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := sess.Send(ctx, recN(1)); err != nil {
			recvDone <- err
			return
		}
		_, _, err := sess.Recv(ctx)
		recvDone <- err
	}()
	time.Sleep(300 * time.Millisecond) // several reap sweeps past the timeout
	if svc.SessionCount() != 1 {
		t.Fatalf("session with in-flight call was reaped")
	}
	close(gate) // box delivers; the blocked Recv completes
	if err := <-recvDone; err != nil {
		t.Fatalf("recv: %v", err)
	}
	sess.Release()
	svc.Shutdown()
}

// TestReleaseIdempotent double-releases and re-uses stats.
func TestReleaseIdempotent(t *testing.T) {
	svc := New()
	svc.Register("inc", "", Options{}, incNet, nil)
	sess, err := svc.Open("inc")
	if err != nil {
		t.Fatal(err)
	}
	sess.Release()
	sess.Release()
	if got := svc.Stats()["net.inc.sessions.closed"]; got != 1 {
		t.Fatalf("closed counter after double release: %d", got)
	}
}

// TestReleaseUnblocksBlockedSend: a Send parked on backpressure returns when
// its session is released, in both modes, whether or not the caller's
// context can ever end.
func TestReleaseUnblocksBlockedSend(t *testing.T) {
	for _, mode := range []SessionMode{Isolated, Shared} {
		for _, cancellable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/cancellable=%v", mode, cancellable), func(t *testing.T) {
				svc := New()
				gate := make(chan struct{}) // never opened
				svc.Register("slow", "", Options{SessionMode: mode, BufferSize: 1}, gatedNet(gate), nil)
				defer svc.Shutdown()
				sess, err := svc.Open("slow")
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				if cancellable {
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					defer cancel()
				}
				failed := make(chan error, 1)
				go func() {
					for i := 0; ; i++ {
						if err := sess.Send(ctx, recN(i)); err != nil {
							failed <- err
							return
						}
					}
				}()
				// The network holds a handful of records at most; the sender
				// is parked once the accepted count stands still.
				for last := int64(-1); ; {
					time.Sleep(20 * time.Millisecond)
					sent, _ := sess.Counts()
					if sent > 0 && sent == last {
						break
					}
					last = sent
				}
				sess.Release()
				select {
				case err := <-failed:
					if !errors.Is(err, snet.ErrCancelled) && !errors.Is(err, snet.ErrClosed) {
						t.Fatalf("parked send returned %v, want ErrCancelled or ErrClosed", err)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("send still parked 2 s after Release")
				}
			})
		}
	}
}

// Every session of a network shares one compiled plan: the builder runs
// once, and the plan (with its routing tables) is reused in Isolated mode.
func TestSessionsShareCompiledPlan(t *testing.T) {
	svc := New()
	defer svc.Shutdown()
	var builds atomic.Int32
	svc.Register("shared-plan", "", Options{}, func(o Options) (snet.Node, error) {
		builds.Add(1)
		return incNet(o)
	}, nil)

	for i := 0; i < 5; i++ {
		s, err := svc.Open("shared-plan")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Send(context.Background(), recN(i)); err != nil {
			t.Fatal(err)
		}
		s.CloseInput()
		rec, _, err := s.Recv(context.Background())
		if err != nil || rec.MustTag("n") != i+1 {
			t.Fatalf("rec=%v err=%v", rec, err)
		}
		s.Release()
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("builder ran %d times, want 1 (plan cached)", got)
	}
	n, _ := svc.Network("shared-plan")
	plan, err := n.Plan()
	if err != nil || plan == nil {
		t.Fatalf("Plan: %v", err)
	}
	if n.PlanErr() != nil {
		t.Fatalf("PlanErr: %v", n.PlanErr())
	}
}

// A network whose compile finds type errors still serves (legacy nets only
// ever failed at runtime), with the findings counted and retrievable.
func TestTypeErroredNetworkStillServes(t *testing.T) {
	svc := New()
	defer svc.Shutdown()
	svc.Register("dead-branch", "", Options{}, func(Options) (snet.Node, error) {
		mk := func(name, sig string) snet.Node {
			return snet.NewBox(name, snet.MustParseSignature(sig),
				func(args []any, out *snet.Emitter) error { return out.Out(1, args...) })
		}
		return snet.Serial(mk("p", "(n) -> (n)"),
			snet.Parallel(mk("q", "(n) -> (n)"), mk("r", "(m) -> (m)"))), nil
	}, nil)

	s, err := svc.Open("dead-branch")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(context.Background(), snet.NewRecord().SetField("n", 1)); err != nil {
		t.Fatal(err)
	}
	s.CloseInput()
	if rec, _, err := s.Recv(context.Background()); err != nil || rec == nil {
		t.Fatalf("rec=%v err=%v", rec, err)
	}
	s.Release()

	n, _ := svc.Network("dead-branch")
	var ce *snet.CompileError
	if !errors.As(n.PlanErr(), &ce) {
		t.Fatalf("PlanErr = %v, want *snet.CompileError", n.PlanErr())
	}
	if ce.Errors[0].Code != snet.ErrCodeUnreachable {
		t.Fatalf("code = %q", ce.Errors[0].Code)
	}
	if got := n.svcStat.Counter("compile.type_errors"); got == 0 {
		t.Fatal("compile.type_errors not counted")
	}
}
