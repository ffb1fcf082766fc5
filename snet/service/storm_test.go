package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/workloads"
	"repro/snet"
)

// webpipeService registers the webpipe net as "webpipe".
func webpipeService(opts Options) *Service {
	svc := New()
	svc.Register("webpipe", "", opts, func(Options) (snet.Node, error) {
		return workloads.WebPipeNet(), nil
	}, nil)
	return svc
}

// TestSessionStorm: 100 goroutines open webpipe sessions while 1 000 send,
// receive, close and release on them, every call racing the others on its
// session (the shape of a router's concurrent test suite, run under -race in
// CI).  Each session has ten callers: seven senders, a receiver, a closer and
// a releaser that waits a little and then releases whatever state the session
// is in.  At the end the arena ledger and the goroutine count are back at
// baseline: no record and no goroutine outlives a storm of racing lifecycles.
func TestSessionStorm(t *testing.T) {
	const sessions, callers, senders = 100, 10, 7
	atBase := arenaLedger(t)
	base := goroutineCount()
	svc := webpipeService(Options{BufferSize: 1})

	opened := make([]chan *Session, sessions)
	for i := range opened {
		opened[i] = make(chan *Session, callers)
	}
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := svc.Open("webpipe")
			if err != nil {
				t.Errorf("open %d: %v", i, err)
				close(opened[i])
				return
			}
			for c := 0; c < callers; c++ {
				opened[i] <- sess
			}
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < sessions*callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, ok := <-opened[i/callers]
			if !ok {
				return
			}
			switch role := i % callers; {
			case role < senders:
				recs := []*snet.Record{workloads.WebPipeRequest(i), workloads.WebPipeRequest(i + 1)}
				n, err := sess.SendBatch(ctx, recs)
				for _, r := range recs[n:] {
					snet.ReleaseRecord(r)
				}
				if err != nil && !errors.Is(err, snet.ErrClosed) && !errors.Is(err, snet.ErrCancelled) {
					t.Errorf("send: %v", err)
				}
			case role == senders:
				for {
					rec, done, err := sess.Recv(ctx)
					if err != nil {
						t.Errorf("recv: %v", err)
					}
					if done || err != nil {
						return
					}
					snet.ReleaseRecord(rec)
				}
			case role == senders+1:
				time.Sleep(time.Duration(i%7) * time.Millisecond)
				sess.CloseInput()
			default:
				time.Sleep(time.Duration(i%11) * time.Millisecond)
				sess.Release()
			}
		}(i)
	}
	wg.Wait()
	if n := svc.SessionCount(); n != 0 {
		t.Errorf("%d sessions live after every one was released", n)
	}
	stats := svc.Stats()
	if o, c := stats["net.webpipe.sessions.opened"], stats["net.webpipe.sessions.closed"]; o != sessions || c != sessions {
		t.Errorf("sessions opened %d, closed %d; want %d each", o, c, sessions)
	}
	svc.Shutdown()
	atBase("the storm")
	waitForGoroutines(t, base)
}

// TestIdleSessionStartsNoRun: a session starts its run on first use.  Opening
// 200 webpipe sessions starts no goroutine; releasing half of them unused
// starts none either and folds no run statistics; one record through each of
// the others runs, and afterwards the arena ledger and the goroutine count
// are back at baseline.
func TestIdleSessionStartsNoRun(t *testing.T) {
	const sessions = 200
	atBase := arenaLedger(t)
	svc := webpipeService(Options{})
	defer svc.Shutdown()
	warm, err := svc.Open("webpipe") // starts the idle reaper, which outlives the test's sessions
	if err != nil {
		t.Fatal(err)
	}
	warm.Release()
	base := goroutineCount()

	open := make([]*Session, sessions)
	for i := range open {
		if open[i], err = svc.Open("webpipe"); err != nil {
			t.Fatal(err)
		}
	}
	if n := goroutineCount(); n > base {
		t.Fatalf("%d idle sessions hold %d goroutines", sessions, n-base)
	}
	for _, sess := range open[:sessions/2] {
		sess.Release()
	}
	if n := goroutineCount(); n > base {
		t.Fatalf("releasing unused sessions left %d goroutines", n-base)
	}
	for k, v := range svc.Stats() {
		if strings.HasPrefix(k, "run.webpipe.") && v != 0 {
			t.Errorf("unused sessions folded run statistics: %s = %d", k, v)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, sess := range open[sessions/2:] {
		if err := sess.Send(ctx, workloads.WebPipeRequest(i)); err != nil {
			t.Fatal(err)
		}
		sess.CloseInput()
		recs, done, err := sess.Drain(ctx, 0)
		if err != nil || !done || len(recs) != 1 {
			t.Fatalf("session %s: drained %d records, done=%v err=%v", sess.ID(), len(recs), done, err)
		}
		snet.ReleaseRecord(recs[0])
		sess.Release()
	}
	if got := svc.Stats()["run.webpipe.box.render.calls"]; got != sessions/2 {
		t.Errorf("run.webpipe.box.render.calls = %d, want %d", got, sessions/2)
	}
	atBase("one record through each used session")
	waitForGoroutines(t, base)
}
