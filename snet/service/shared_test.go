package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/snet"
)

// pipeNet builds an order-preserving three-stage pipeline over tag <n>
// (+1, *2, +3): a network whose per-session output sequence is a pure
// function of its input sequence, so it can anchor the cross-mode
// determinism property.
func pipeNet(Options) (snet.Node, error) {
	inc := func(name string, f func(int) int) snet.Node {
		return snet.NewBox(name, snet.MustParseSignature("(<n>) -> (<n>)"),
			func(args []any, out *snet.Emitter) error {
				return out.Out(1, f(args[0].(int)))
			})
	}
	return snet.Serial(
		inc("p1", func(n int) int { return n + 1 }),
		inc("p2", func(n int) int { return n * 2 }),
		inc("p3", func(n int) int { return n + 3 }),
	), nil
}

func sharedOpts(extra Options) Options {
	extra.SessionMode = Shared
	return extra
}

// runSessionSequence opens a session, streams seq values of <n>, closes the
// input and drains to completion, returning the output values in arrival
// order.
func runSessionSequence(t *testing.T, svc *Service, netName string, seq []int) []int {
	t.Helper()
	sess, err := svc.Open(netName)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() {
		for _, v := range seq {
			if sess.Send(ctx, recN(v)) != nil {
				return
			}
		}
		sess.CloseInput()
	}()
	recs, done, err := sess.Drain(ctx, 0)
	if err != nil || !done {
		t.Fatalf("drain: done=%v err=%v", done, err)
	}
	out := make([]int, len(recs))
	for i, r := range recs {
		out[i], _ = r.Tag("n")
	}
	return out
}

// TestCrossModeSessionDeterminism is the shared-vs-isolated property test:
// for an order-preserving network, every session's output sequence must be
// identical in both modes — same values, same per-session causal order —
// with many sessions running concurrently.
func TestCrossModeSessionDeterminism(t *testing.T) {
	const sessions = 16
	const perSession = 25
	results := map[SessionMode][][]int{}
	for _, mode := range []SessionMode{Isolated, Shared} {
		svc := New()
		svc.Register("pipe", "", Options{SessionMode: mode, BufferSize: 4, BoxWorkers: 4}, pipeNet, nil)
		outs := make([][]int, sessions)
		var wg sync.WaitGroup
		for c := 0; c < sessions; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				seq := make([]int, perSession)
				for i := range seq {
					seq[i] = c*1000 + i
				}
				outs[c] = runSessionSequence(t, svc, "pipe", seq)
			}(c)
		}
		wg.Wait()
		results[mode] = outs
		svc.Shutdown()
	}
	for c := 0; c < sessions; c++ {
		iso, sh := results[Isolated][c], results[Shared][c]
		if len(iso) != perSession || len(sh) != perSession {
			t.Fatalf("session %d: %d isolated vs %d shared records", c, len(iso), len(sh))
		}
		for i := range iso {
			want := ((c*1000+i)+1)*2 + 3 // the pipeline applied in input order
			if iso[i] != want || sh[i] != want {
				t.Fatalf("session %d position %d: isolated=%d shared=%d want=%d",
					c, i, iso[i], sh[i], want)
			}
		}
	}
}

// TestSharedSessionIsolation: concurrent shared-mode sessions over one warm
// engine each see exactly their own records.
func TestSharedSessionIsolation(t *testing.T) {
	svc := New()
	svc.Register("inc", "", sharedOpts(Options{BufferSize: 4}), incNet, nil)
	defer svc.Shutdown()
	const clients = 48
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
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
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
				if r.HasReservedLabel() {
					errs <- fmt.Errorf("client %d: session tag leaked at egress: %v", c, r)
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
	if stats["net.inc.engine.warm"] != 1 {
		t.Fatalf("engine not reported warm: %v", stats)
	}
}

// TestSharedSessionChurnReplicaGauge is the acceptance check on the replica
// lifecycle: after waves of sessions open, work and release over one warm
// engine, the live-replica gauge must return to 0 — replicas are reclaimed,
// not accumulated.
func TestSharedSessionChurnReplicaGauge(t *testing.T) {
	svc := New()
	svc.Register("inc", "", sharedOpts(Options{BufferSize: 4}), incNet, nil)
	defer svc.Shutdown()
	const waves, perWave = 6, 16
	for w := 0; w < waves; w++ {
		var wg sync.WaitGroup
		for c := 0; c < perWave; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				seq := []int{w*100 + c, w*100 + c + 1}
				_ = runSessionSequence(t, svc, "inc", seq)
			}(c)
		}
		wg.Wait()
	}
	n, _ := svc.Network("inc")
	eng := n.liveEngine()
	if eng == nil {
		t.Fatal("no warm engine after shared sessions")
	}
	gauge := func() int64 {
		return eng.handle.Stats().Counter("split." + sessionMuxName + ".replicas")
	}
	deadline := time.Now().Add(5 * time.Second)
	for gauge() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := gauge(); g != 0 {
		t.Fatalf("%d session replicas still live after churn", g)
	}
	if closed := eng.handle.Stats().Counter("split." + sessionMuxName + ".closed"); closed != waves*perWave {
		t.Fatalf("closed = %d, want %d", closed, waves*perWave)
	}
	if svc.SessionCount() != 0 {
		t.Fatalf("sessions survived churn")
	}
}

// TestSharedOpenAfterWarmIsCheap: once the engine is warm, Open must not
// instantiate network machinery — it is a map insert, so the goroutine
// count stays flat across a large wave of opens (replicas only unfold on
// the first record).
func TestSharedOpenAfterWarmIsCheap(t *testing.T) {
	svc := New()
	svc.Register("pipe", "", sharedOpts(Options{BufferSize: 2, MaxSessions: -1}), pipeNet, nil)
	defer svc.Shutdown()
	warm, err := svc.Open("pipe") // pays the engine instantiation
	if err != nil {
		t.Fatal(err)
	}
	warm.Release()
	base := goroutineCount()
	const wave = 256
	sessions := make([]*Session, wave)
	for i := range sessions {
		if sessions[i], err = svc.Open("pipe"); err != nil {
			t.Fatal(err)
		}
	}
	if grew := goroutineCount() - base; grew > 4 {
		t.Fatalf("opening %d warm sessions grew goroutines by %d", wave, grew)
	}
	for _, sess := range sessions {
		sess.Release()
	}
}

// TestSharedReleaseDropsPendingOutput: releasing a shared session with
// undrained output must not wedge the engine — its records are discarded at
// the demux and other sessions keep flowing.
func TestSharedReleaseDropsPendingOutput(t *testing.T) {
	svc := New()
	svc.Register("inc", "", sharedOpts(Options{BufferSize: 1}), incNet, nil)
	defer svc.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	clog, err := svc.Open("inc")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := clog.Send(ctx, recN(i)); err != nil {
			t.Fatal(err)
		}
	}
	clog.CloseInput()
	clog.Release() // never drained: demux must discard, not block
	if got := runSessionSequence(t, svc, "inc", []int{41}); len(got) != 1 || got[0] != 42 {
		t.Fatalf("session after clogged release: %v", got)
	}
}

// TestSharedSendAfterCloseAndReservedRejected: input-side error paths of
// the shared backend.
func TestSharedSendAfterCloseAndReservedRejected(t *testing.T) {
	svc := New()
	svc.Register("inc", "", sharedOpts(Options{BufferSize: 4}), incNet, nil)
	defer svc.Shutdown()
	sess, err := svc.Open("inc")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Release()
	ctx := context.Background()
	spoof := snet.NewRecord().SetTag("n", 1).SetTag(sessionTag, 99)
	if err := sess.Send(ctx, spoof); !errors.Is(err, ErrReservedLabel) {
		t.Fatalf("spoofed session tag accepted: %v", err)
	}
	if _, err := sess.SendBatch(ctx, []*snet.Record{snet.NewReplicaCloseAck("k", 1)}); !errors.Is(err, ErrReservedLabel) {
		t.Fatalf("spoofed close record accepted: %v", err)
	}
	if err := sess.Send(ctx, recN(1)); err != nil {
		t.Fatal(err)
	}
	sess.CloseInput()
	if err := sess.Send(ctx, recN(2)); !errors.Is(err, snet.ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	recs, done, err := sess.Drain(ctx, 0)
	if err != nil || !done || len(recs) != 1 {
		t.Fatalf("drain: %d records done=%v err=%v", len(recs), done, err)
	}
}

// TestSharedShutdownNoLeaks: shutting the service down with shared sessions
// mid-flight (undrained output, queued input) unwinds the warm engine and
// every mux goroutine.
func TestSharedShutdownNoLeaks(t *testing.T) {
	base := goroutineCount()
	svc := New()
	gate := make(chan struct{}) // never opened
	svc.Register("slow", "", sharedOpts(Options{BufferSize: 2}), gatedNet(gate), nil)
	svc.Register("inc", "", sharedOpts(Options{BufferSize: 2}), incNet, nil)
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

// TestSharedSendWakesSleepingFeeder: a Send on an idle engine at BufferSize 0
// — every stream synchronous, nothing anywhere to park a record in — goes
// through.  (The name is the floor list's: the engine once had a feeder
// goroutine that slept between records, and this send was the one it missed.)
func TestSharedSendWakesSleepingFeeder(t *testing.T) {
	svc := New()
	svc.Register("inc", "", sharedOpts(Options{MaxSessions: 2}), incNet, nil)
	defer svc.Shutdown()
	sess, err := svc.Open("inc")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the engine goes idle
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sess.Send(ctx, recN(1)); err != nil {
		t.Fatalf("send with the feeder asleep: %v", err)
	}
	r, _, err := sess.Recv(ctx)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if v, _ := r.Tag("n"); v != 2 {
		t.Fatalf("got %v, want <n>=2", r)
	}
}

// TestSharedIdleSessionsReaped: the service-level idle reaper releases
// abandoned shared sessions, whose replicas are then reclaimed by the close
// protocol — slots and replicas both come back.
func TestSharedIdleSessionsReaped(t *testing.T) {
	svc := New()
	svc.reapEvery = 20 * time.Millisecond
	svc.Register("inc", "", sharedOpts(Options{MaxSessions: 2, IdleTimeout: 50 * time.Millisecond}), incNet, nil)
	defer svc.Shutdown()
	for i := 0; i < 2; i++ {
		sess, err := svc.Open("inc")
		if err != nil {
			t.Fatal(err)
		}
		// Leave a record in flight so the replica actually unfolded.
		if err := sess.Send(context.Background(), recN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Open("inc"); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("expected cap hit, got %v", err)
	}
	n, _ := svc.Network("inc")
	deadline := time.Now().Add(5 * time.Second)
	for n.svcStat.Counter("sessions.reaped") < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if r, c := n.svcStat.Counter("sessions.reaped"), svc.SessionCount(); r != 2 || c != 0 {
		t.Fatalf("reaper released %d of 2 idle sessions, %d still registered", r, c)
	}
	if _, err := svc.Open("inc"); err != nil { // slots freed again
		t.Fatalf("open after reap: %v", err)
	}
	gauge := func() int64 {
		return n.liveEngine().handle.Stats().Counter("split." + sessionMuxName + ".replicas")
	}
	deadline = time.Now().Add(5 * time.Second)
	for gauge() > 1 && time.Now().Before(deadline) { // the fresh session may hold one
		time.Sleep(5 * time.Millisecond)
	}
	if g := gauge(); g > 1 {
		t.Fatalf("reaped sessions left %d replicas live", g)
	}
}

// TestSharedFirehoseDoesNotStarveNeighbour is the ingress-fairness property:
// four goroutines sending flat out on one session do not keep a second
// session's records out of the engine — blocked senders of every session
// wait on the engine's one input stream in arrival order.
func TestSharedFirehoseDoesNotStarveNeighbour(t *testing.T) {
	svc := New()
	svc.Register("inc", "", sharedOpts(Options{BufferSize: 2}), incNet, nil)
	defer svc.Shutdown()
	hose, err := svc.Open("inc")
	if err != nil {
		t.Fatal(err)
	}
	trickle, err := svc.Open("inc")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for hose.Send(ctx, recN(0)) == nil {
			}
		}()
	}
	wg.Add(1)
	go func() { // the hose is drained, or its output would clog the demux
		defer wg.Done()
		for {
			if _, done, err := hose.Recv(ctx); done || err != nil {
				return
			}
		}
	}()
	var worst time.Duration
	for i := 0; i < 200; i++ {
		start := time.Now()
		if err := trickle.Send(ctx, recN(i)); err != nil {
			t.Fatalf("round trip %d: send: %v", i, err)
		}
		r, _, err := trickle.Recv(ctx)
		if err != nil {
			t.Fatalf("round trip %d: recv: %v", i, err)
		}
		if v, _ := r.Tag("n"); v != i+1 {
			t.Fatalf("round trip %d: got %v", i, r)
		}
		worst = max(worst, time.Since(start))
	}
	hose.Release()
	trickle.Release()
	wg.Wait()
	if worst > time.Second {
		t.Fatalf("worst round trip beside a firehose session: %v", worst)
	}
}

// TestSharedCloseOnFullEngineDoesNotBlock: CloseInput and Release return at
// once although the engine's input stream is full (a gated network at
// BufferSize 0), and every session's replica and id are still reclaimed once
// the engine moves again — the close acknowledgements were not lost.
func TestSharedCloseOnFullEngineDoesNotBlock(t *testing.T) {
	base := goroutineCount()
	svc := New()
	gate := make(chan struct{})
	svc.Register("slow", "", sharedOpts(Options{MaxSessions: -1}), gatedNet(gate), nil)
	start := time.Now()
	for i := 0; i < 64; i++ {
		sess, err := svc.Open("slow")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_ = sess.Send(ctx, recN(i)) // all but the first few time out: the engine is full
		cancel()
		if i%2 == 0 {
			sess.CloseInput()
		}
		sess.Release()
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("closing 64 sessions on a full engine took %v", took)
	}
	close(gate)
	n, _ := svc.Network("slow")
	eng := n.liveEngine()
	gauge := func() int64 {
		return eng.handle.Stats().Counter("split." + sessionMuxName + ".replicas")
	}
	deadline := time.Now().Add(10 * time.Second)
	for (eng.sessionCount() != 0 || gauge() != 0) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s, g := eng.sessionCount(), gauge(); s != 0 || g != 0 {
		t.Fatalf("after the gate opened: %d session ids and %d replicas still live", s, g)
	}
	svc.Shutdown()
	waitForGoroutines(t, base)
}

// BenchmarkSharedStream prices one record streamed through a Shared session
// with idle sessions open beside it: a record's way into the engine must not
// cost O(open sessions).
func BenchmarkSharedStream(b *testing.B) {
	for _, idle := range []int{0, 1000} {
		b.Run(fmt.Sprintf("idle=%d", idle), func(b *testing.B) {
			svc := New()
			svc.Register("inc", "", sharedOpts(Options{BufferSize: 32, MaxSessions: -1}), incNet, nil)
			defer svc.Shutdown()
			for i := 0; i < idle; i++ {
				if _, err := svc.Open("inc"); err != nil {
					b.Fatal(err)
				}
			}
			sess, err := svc.Open("inc")
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				for i := 0; i < b.N; i++ {
					if _, _, err := sess.Recv(ctx); err != nil {
						b.Error(err)
						return
					}
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sess.Send(ctx, recN(i)); err != nil {
					b.Fatal(err)
				}
			}
			<-drained
		})
	}
}
