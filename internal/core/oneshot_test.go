package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

// Tests of the one-shot harnesses, Plan.RunAll and Plan.RunUntil.

// stuckBox is a box whose first call signals entered and then waits for gate
// without looking at the run's context: a box that ignores cancellation.
func stuckBox(name string, entered chan<- struct{}, gate <-chan struct{}) Node {
	first := true
	return NewBox(name, MustParseSignature("(<seq>) -> (<seq>)"), func(args []any, out *Emitter) error {
		if first {
			first = false
			close(entered)
			<-gate
		}
		return out.Out(1, args[0].(int))
	})
}

// TestOneShotReturnsOnCancel: RunAll returns the context's error promptly
// while a box ignores the cancellation, and once that box returns, the run's
// records and goroutines are gone.
func TestOneShotReturnsOnCancel(t *testing.T) {
	bothPlans(t, func(t *testing.T, m execMode) {
		goroutines, live := goroutineCount(), poolLiveSettled(t)
		entered, gate := make(chan struct{}), make(chan struct{})
		net := Serial(MustFilter("{<seq>} -> {<seq>=<seq>+1}"), stuckBox("os_stuck", entered, gate))
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		begun := time.Now()
		_, _, err := m.RunAll(ctx, net, pooledSeqInputs(40, nil))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("RunAll returned %v, want the context's deadline error", err)
		}
		if d := time.Since(begun); d > time.Second {
			t.Errorf("RunAll returned after %v, want within 1s", d)
		}
		<-entered
		close(gate)
		waitForGoroutines(t, goroutines)
		waitPoolLive(t, live)
	})
}

// TestOneShotCountsUntakenAtTheCut: a run cut while its one goroutine is
// stuck in its first box call has taken exactly that one input; the rest went
// back to the arena at the cut, counted under "input.untaken".
func TestOneShotCountsUntakenAtTheCut(t *testing.T) {
	live := poolLiveSettled(t)
	entered, gate := make(chan struct{}), make(chan struct{})
	p := MustCompile(Serial(MustFilter("{<seq>} -> {<seq>=<seq>+1}"), stuckBox("os_cut", entered, gate)))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	_, stats, err := p.RunAll(ctx, pooledSeqInputs(10, nil))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunAll returned %v, want the context's error", err)
	}
	if got := stats.Counter("input.untaken"); got != 9 {
		t.Errorf("input.untaken = %d at the cut, want 9", got)
	}
	close(gate)
	waitPoolLive(t, live)
}

// feed sends all inputs and closes the input: the producer side of the tests
// that drive a Handle themselves.
func (h *Handle) feed(inputs []*Record) {
	if _, err := h.SendBatch(context.Background(), inputs); err == nil {
		h.Close()
	}
}

// TestOneShotGoroutineBudget pins what a one-record RunAll costs in
// goroutines during its first box call: a root of stages and a
// non-deterministic parallel of them — webpipe's shape — the one goroutine
// that steps it; a star root, which has no one-shot cut, what its run as a
// part costs — its dispatcher and merger and, unfolded, the tap behind the
// first replica — and no reader of its output but the caller (Start's
// costs one more).
func TestOneShotGoroutineBudget(t *testing.T) {
	box := func(name string, probe func()) Node {
		return NewBox(name, MustParseSignature("(<seq>) -> (<seq>)"), func(args []any, out *Emitter) error {
			if probe != nil {
				probe()
			}
			return out.Out(1, args[0].(int))
		})
	}
	for _, c := range []struct {
		name string
		net  func(probe func()) Node
		want int
	}{
		{"webpipe", func(probe func()) Node {
			return Serial(box("gw_classify", probe), Parallel(box("gw_api", nil), box("gw_page", nil)), box("gw_render", nil))
		}, 1},
		{"star", func(probe func()) Node {
			done := NewBox("gw_op", MustParseSignature("(<seq>) -> (<seq>,<done>)"), func(args []any, out *Emitter) error {
				probe()
				return out.Out(1, args[0].(int), 1)
			})
			return Star(done, MustParsePattern("{<done>}"))
		}, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			base, during, first := goroutineCount(), 0, true
			net := c.net(func() {
				if first {
					first, during = false, goroutineCount()
				}
			})
			if _, _, err := MustCompile(net).RunAll(context.Background(), seqInputs(1, nil)); err != nil {
				t.Fatal(err)
			}
			if during-base != c.want {
				t.Errorf("%d goroutines over the base during the first box call, want exactly %d", during-base, c.want)
			}
		})
	}
}
