package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Tests of the direct fan-in (merge.go): a branch's output writer ships
// frames straight into its merger — no relay goroutine, no output stream —
// and the merger consumes whole frames.

// liveNet starts n, feeds inputs and waits for want outputs, leaving the
// network running (input open) so its steady-state goroutines can be
// counted.
func liveNet(t *testing.T, n Node, inputs []*Record, want int, opts ...Option) *Handle {
	t.Helper()
	h := compileNet(n).Start(context.Background(), opts...)
	for _, r := range inputs {
		if err := h.Send(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < want; i++ {
		select {
		case <-h.Out():
		case <-time.After(5 * time.Second):
			t.Fatalf("output %d of %d did not arrive", i+1, want)
		}
	}
	return h
}

// TestFanInGoroutineBudget pins what a branch costs in goroutines: a body
// the plan cuts into one segment nothing — it is stepped by its dispatcher —
// a branch nothing was routed to nothing either, not even an instance, and
// any other branch its operand's and nothing else.  (The relay that re-read
// every branch's output stream into the merger was one more per branch.)
func TestFanInGoroutineBudget(t *testing.T) { eachCell(t, testFanInGoroutineBudget) }

func testFanInGoroutineBudget(t *testing.T, _ cell) {
	join := func() Node {
		return Serial(
			Sync(MustParsePattern("{a}"), MustParsePattern("{b}")),
			NewBox("gbsum", MustParseSignature("(a,b,<k>) -> (<k>)"),
				func(args []any, out *Emitter) error { return out.Out(1, args[2].(int)) }),
		)
	}
	echo := func(name, field string) Node {
		return NewBox(name, MustParseSignature("("+field+") -> ("+field+")"),
			func(args []any, out *Emitter) error { return out.Out(1, args[0]) })
	}
	// budget runs n until want outputs have arrived and counts the goroutines
	// of the live network over the base.
	budget := func(t *testing.T, n Node, inputs []*Record, want, goroutines int, opts ...Option) *Stats {
		t.Helper()
		base := goroutineCount()
		h := liveNet(t, n, inputs, want, opts...)
		defer h.Cancel()
		waitForGoroutines(t, base+goroutines)
		if g := runtime.NumGoroutine(); g != base+goroutines {
			t.Errorf("%d goroutines over the base, want exactly %d", g-base, goroutines)
		}
		h.Cancel()
		h.Wait()
		waitForGoroutines(t, base)
		return h.Stats()
	}
	t.Run("split replica of sync..box", func(t *testing.T) {
		const replicas = 8
		var inputs []*Record
		for k := 0; k < replicas; k++ {
			inputs = append(inputs,
				NewRecord().SetField("a", 1).SetTag("k", k),
				NewRecord().SetField("b", 2).SetTag("k", k))
		}
		// The boundary, the dispatcher and the merger; a live replica is a
		// struct in the dispatcher's hands.
		stats := budget(t, NamedSplit("gb", join(), "k"), inputs, replicas, 3, WithBoxWorkers(1))
		if g := stats.Counter("split.gb.replicas"); g != replicas {
			t.Fatalf("live replicas = %d, want %d", g, replicas)
		}
	})
	t.Run("split replica of sync..box, spawned", func(t *testing.T) {
		const replicas = 8
		var inputs []*Record
		for k := 0; k < replicas; k++ {
			inputs = append(inputs,
				NewRecord().SetField("a", 1).SetTag("k", k),
				NewRecord().SetField("b", 2).SetTag("k", k))
		}
		// A box of width 2 is no stage: the replica is the synchrocell and the
		// box's dispatch loop, releaser and one worker.
		budget(t, NamedSplit("gbw", join(), "k"), inputs, replicas, 3+4*replicas, WithBoxWorkers(2))
	})
	t.Run("parallel branch", func(t *testing.T) {
		inputs := []*Record{NewRecord().SetField("a", 1), NewRecord().SetField("b", 2)}
		// Boundary, dispatcher, merger: both boxes are stepped.
		budget(t, Parallel(echo("gba", "a"), echo("gbb", "b")), inputs, 2, 3, WithBoxWorkers(1))
	})
	t.Run("parallel branch never routed to", func(t *testing.T) {
		inputs := []*Record{NewRecord().SetField("a", 1)}
		// The routed branch is a box of width 2 — its dispatch loop, releaser
		// and one worker; the other does not exist.
		stats := budget(t, Parallel(echo("gbr", "a"), echo("gbn", "b")), inputs, 1, 3+3, WithBoxWorkers(2))
		if got := stats.Counter("box.gbr.instances"); got != 1 {
			t.Errorf("box.gbr.instances = %d, want 1", got)
		}
		if _, counted := stats.Snapshot()["box.gbn.instances"]; counted {
			t.Errorf("box.gbn.instances is reported for a branch no record reached")
		}
	})
	t.Run("split ending a parallel branch", func(t *testing.T) {
		const replicas = 4
		var inputs []*Record
		for k := 0; k < replicas; k++ {
			inputs = append(inputs,
				NewRecord().SetField("a", 1).SetTag("k", k),
				NewRecord().SetField("b", 2).SetTag("k", k))
		}
		// Boundary, the parallel's dispatcher and merger: the branch — the
		// tap, the split and its replicas — is one segment the parallel
		// steps.
		n := Parallel(echo("gbp", "x"), Serial(Observe("gbp_tap", nil), NamedSplit("gbps", join(), "k")))
		budget(t, n, inputs, replicas, 3, WithBoxWorkers(1))
	})
	// stage runs a star of the stage until it has unfolded depth stages and
	// counts its goroutines: 3 and perStage a stage.
	stage := func(t *testing.T, name string, stage Node, in *Record, perStage int) {
		t.Helper()
		const depth = 6
		stats := budget(t, NamedStar(name, stage, MustParsePattern("{<done>}")),
			[]*Record{in}, 1, 3+perStage*depth, WithBoxWorkers(1))
		if d := stats.Counter("star." + name + ".replicas"); d != depth {
			t.Fatalf("unfolded stages = %d, want %d", d, depth)
		}
	}
	t.Run("star stage", func(t *testing.T) {
		// Boundary, the entry dispatcher and its merger; every unfolded stage
		// adds the next tap, which steps its operand and writes into the entry
		// tap's merge queue.
		// The exit branch of a stage is the tap's own output writer.
		stage(t, "gbs", decBox(), recN(5), 1)
	})
	t.Run("wavefront stage", func(t *testing.T) {
		// The next tap steps the parallel, the parallel the split, the split
		// its replica.
		n := Parallel(echo("gbw_x", "x"), NamedSplit("gbw", decBox(), "k"))
		stage(t, "gbws", n, recN(5).SetTag("k", 0), 1)
	})
	t.Run("filter..split stage", func(t *testing.T) {
		// Fig. 3's stage: the next tap steps the filter, the split and its
		// replica.
		n := Serial(MustFilter("{<n>} -> {<n>, <k>=<n>%2}"), NamedSplit("gbf", decBox(), "k"))
		stage(t, "gbfs", n, recN(5), 1)
	})
	t.Run("deterministic star stage", func(t *testing.T) {
		const depth = 6
		// A deterministic site keeps its merger, and so does every tap of it.
		stats := budget(t, NamedStarDet("gbsd", decBox(), MustParsePattern("{<done>}")),
			[]*Record{recN(depth - 1)}, 1, 3+3*depth, WithBoxWorkers(1))
		if d := stats.Counter("star.gbsd.replicas"); d != depth {
			t.Fatalf("unfolded stages = %d, want %d", d, depth)
		}
	})
}

// mergeHarness runs one fan-in site by hand: the test is the dispatcher, a
// merger goroutine writes into out, and the test reads out.
type mergeHarness struct {
	cancel context.CancelFunc
	f      *fanout
	m      *merger
	out    *streamReader
	done   chan struct{}
}

func newMergeHarness(buf, batch int, det bool) *mergeHarness {
	env, cancel := newTestEnv(buf, batch)
	in, _ := new(stream).open(env, env.buf)
	outR, outW := new(stream).open(env, env.buf)
	f := &fanout{env: env, det: det, in: in, out: outW, mux: make(chan branchEvent, env.buf+mergeQueueSlack)}
	h := &mergeHarness{cancel: cancel, f: f, out: outR,
		m: &merger{f: f, out: outW}, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		defer outW.close()
		if !h.m.run() {
			h.m.abandon()
		}
	}()
	return h
}

// branchWriter registers a branch the test itself writes the output of.
func (h *mergeHarness) branchWriter() *streamWriter { return h.f.addBranch(nil, nil).w }

func (h *mergeHarness) wait(t *testing.T) {
	t.Helper()
	select {
	case <-h.done:
	case <-time.After(5 * time.Second):
		t.Fatal("merger did not return")
	}
}

// TestMergeFrameMarkersAnywhere: the merger consumes whole frames, and a
// marker may sit anywhere in one — regions are cut at the marker, not at the
// frame.  Two branches of a deterministic site deliver hand-built batches
// with markers first, in the middle and last; the output must come region by
// region, branch by branch.
func TestMergeFrameMarkersAnywhere(t *testing.T) {
	h := newMergeHarness(8, 8, true)
	defer h.cancel()
	b0, b1 := h.branchWriter(), h.branchWriter()
	mk := item{mk: &h.f.own}
	for i := 1; i <= 3; i++ {
		h.f.markers++
		h.f.sendEv(branchEvent{kind: evMarker, fr: frame{single: mk}})
	}
	ship := func(w *streamWriter, items ...item) {
		t.Helper()
		if !w.ship(frame{batch: append(acquireFrameSlab(len(items)), items...)}) {
			t.Fatal("ship failed")
		}
	}
	// Regions of branch 0: {0} {1,2} {} tail {3}; of branch 1: {} {10} {11} tail {12,13}.
	ship(b1, mk, itemN(10), mk, itemN(11))
	ship(b0, itemN(0), mk, itemN(1), itemN(2), mk, mk, itemN(3))
	ship(b1, mk, itemN(12), itemN(13))
	h.f.finish()
	var got []int
	for {
		it, ok := h.out.recv()
		if !ok {
			break
		}
		if it.mk != nil {
			t.Fatalf("own marker leaked into the output: %+v", it.mk)
		}
		got = append(got, tagOf(t, it.rec, "n"))
	}
	h.wait(t)
	if want := []int{0, 1, 2, 10, 11, 3, 12, 13}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged order %v, want %v", got, want)
	}
}

// TestFanInCancelMidFrame: cancellation lands while the merger is halfway
// through a batch frame (blocked on its output) and a branch is blocked in
// ship on the full merge queue.  Every record must be released by exactly
// one party — the out writer's retract, the merger's release of the unread
// rest of the frame and of the queue, the branch writer's retract — so the
// arena's ledger returns to its baseline, and nobody stays behind.
func TestFanInCancelMidFrame(t *testing.T) {
	base, live := goroutineCount(), poolLiveSettled(t)
	const buf, batch = 1, 4
	// The frame in the merger's hands, a full queue, and one frame more.
	const frames = buf + mergeQueueSlack + 2
	h := newMergeHarness(buf, batch, false)
	h.m.out.batch = 1 // one record fills out's buffer, the second blocks the merger
	w := h.branchWriter()
	var sending atomic.Int32 // index of the record the writer is sending
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for n := 0; n < frames*batch; n++ {
			sending.Store(int32(n))
			if !w.send(item{rec: AcquireRecord().SetTag("n", n)}) {
				return
			}
		}
	}()
	// Record 0 sits in out's buffer and the merger is blocked shipping
	// record 1, with records 2 and 3 of its frame unread; the queue fills up
	// behind it and the writer blocks shipping the last frame.
	deadline := time.Now().Add(5 * time.Second)
	for (len(h.out.ch) < 1 || len(h.f.mux) < cap(h.f.mux) || sending.Load() < frames*batch-1) &&
		time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(h.out.ch) != 1 || len(h.f.mux) != cap(h.f.mux) {
		t.Fatalf("not blocked as intended: %d records out, %d of %d frames queued",
			len(h.out.ch), len(h.f.mux), cap(h.f.mux))
	}
	time.Sleep(5 * time.Millisecond) // let the writer park in ship
	h.cancel()
	h.wait(t)
	<-writerDone
	h.out.Discard() // what reached the output belongs to its reader
	waitForGoroutines(t, base)
	waitPoolLive(t, live)
}

// TestFanInCancelReleasesBufferedRegions: a deterministic merger buffers
// whole regions; a cancelled one gives them back.
func TestFanInCancelReleasesBufferedRegions(t *testing.T) {
	base, live := goroutineCount(), poolLiveSettled(t)
	h := newMergeHarness(4, 4, true)
	w := h.branchWriter()
	for n := 0; n < 10; n++ {
		if !w.send(item{rec: AcquireRecord().SetTag("n", n)}) {
			t.Fatal("send failed")
		}
	}
	if !w.flush() {
		t.Fatal("flush failed")
	}
	// No marker was announced, so nothing may leave before the branch closes.
	deadline := time.Now().Add(5 * time.Second)
	for len(h.f.mux) > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	h.cancel()
	h.wait(t)
	h.out.Discard()
	waitForGoroutines(t, base)
	waitPoolLive(t, live)
}
