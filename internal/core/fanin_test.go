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
func liveNet(t *testing.T, m execMode, n Node, inputs []*Record, want int, opts ...Option) *Handle {
	t.Helper()
	h := m.Start(context.Background(), n, opts...)
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
func TestFanInGoroutineBudget(t *testing.T) { bothPlans(t, testFanInGoroutineBudget) }

func testFanInGoroutineBudget(t *testing.T, m execMode) {
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
		h := liveNet(t, m, n, inputs, want, opts...)
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
		// struct in the dispatcher's hands — un-fused, where nothing is
		// stepped, its synchrocell and its box on a goroutine each.
		want := 3
		if !m.fuse {
			want += 2 * replicas
		}
		stats := budget(t, NamedSplit("gb", join(), "k"), inputs, replicas, want, WithBoxWorkers(1))
		if g := replicaGauge(stats, "gb"); g != replicas {
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
		// Boundary, dispatcher, merger: both boxes are stepped — un-fused each
		// on a goroutine of its own.
		want := 3
		if !m.fuse {
			want += 2
		}
		budget(t, Parallel(echo("gba", "a"), echo("gbb", "b")), inputs, 2, want, WithBoxWorkers(1))
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
		// steps.  Un-fused the tap and the split's dispatcher are goroutines,
		// the split direct, its replicas writing the parallel's merge queue,
		// and each synchrocell and box on a goroutine of its own.
		want := 3
		if !m.fuse {
			want += 2 + 2*replicas
		}
		n := Parallel(echo("gbp", "x"), Serial(Observe("gbp_tap", nil), NamedSplit("gbps", join(), "k")))
		budget(t, n, inputs, replicas, want, WithBoxWorkers(1))
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
	// unfused is what a stage costs besides the next tap without fusion.
	unfused := func(n int) int {
		if m.fuse {
			return 0
		}
		return n
	}
	t.Run("star stage", func(t *testing.T) {
		// Boundary, the entry dispatcher and its merger; every unfolded stage
		// adds the next tap, which steps its operand and writes into the entry
		// tap's merge queue — un-fused, the operand on a goroutine of its own.
		// The exit branch of a stage is the tap's own output writer.
		stage(t, "gbs", decBox(), recN(5), 1+unfused(1))
	})
	t.Run("wavefront stage", func(t *testing.T) {
		// The next tap steps the parallel, the parallel the split, the split
		// its replica — un-fused, the parallel's dispatcher and merger, the
		// split's dispatcher and the replica are goroutines of their own.
		n := Parallel(echo("gbw_x", "x"), NamedSplit("gbw", decBox(), "k"))
		stage(t, "gbws", n, recN(5).SetTag("k", 0), 1+unfused(4))
	})
	t.Run("filter..split stage", func(t *testing.T) {
		// Fig. 3's stage: the next tap steps the filter, the split and its
		// replica — un-fused, the filter, the split's dispatcher and merger
		// and the replica are goroutines of their own.
		n := Serial(MustFilter("{<n>} -> {<n>, <k>=<n>%2}"), NamedSplit("gbf", decBox(), "k"))
		stage(t, "gbfs", n, recN(5), 1+unfused(4))
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
	in, _ := newStream(env, env.buf)
	outR, outW := newStream(env, env.buf)
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

// TestFanInRetiredReplicasLeaveTables: a long-lived site that opens and
// closes replicas (a shared engine's SessionSplit) keeps entries for its
// live replicas only — in the dispatcher's port table, in the input reader's
// idle-flush list and in the merger's branch list.
func TestFanInRetiredReplicasLeaveTables(t *testing.T) {
	const sessions, liveAtOnce = 2000, 3
	base := goroutineCount()
	h := newMergeHarness(4, 8, false)
	defer h.cancel()
	recv := func() *Record {
		t.Helper()
		for {
			it, ok := h.out.recv()
			if !ok {
				t.Fatal("output closed early")
			}
			if it.rec != nil {
				return it.rec
			}
		}
	}
	var open []*branchPort
	for s := 0; s < sessions; s++ {
		port := h.f.addBranch(Observe("sess", nil), nil)
		open = append(open, port)
		if !h.f.route(port, recN(s)) || !port.w.flush() {
			t.Fatal("route failed")
		}
		if got := tagOf(t, recv(), "n"); got != s {
			t.Fatalf("session %d: got record %d", s, got)
		}
		if len(open) == liveAtOnce {
			// Close the oldest; its acknowledgement follows its records.
			if !h.f.retireBranch(open[0], NewReplicaCloseAck("sid", s)) {
				t.Fatal("retire failed")
			}
			open = open[1:]
			if ack := recv(); !IsReplicaClose(ack) || tagOf(t, ack, "sid") != s {
				t.Fatalf("session %d: want its close acknowledgement, got %v", s, ack)
			}
		}
		if len(h.f.ports) != len(open) || len(h.f.in.onIdle) != len(open) {
			t.Fatalf("after %d sessions: %d ports, %d idle-flush writers, %d live replicas",
				s+1, len(h.f.ports), len(h.f.in.onIdle), len(open))
		}
		for i, p := range h.f.ports {
			if p.slot != i || h.f.in.onIdle[i] != p.w {
				t.Fatalf("port table out of step with the idle-flush list at slot %d", i)
			}
		}
	}
	h.f.finish()
	for {
		if _, ok := h.out.recv(); !ok {
			break
		}
	}
	h.wait(t)
	// The merger is done: its list is ours to read.  Settled branches are
	// dropped once they outnumber the live ones.
	if n := len(h.m.branches); n > 2*liveAtOnce+2 {
		t.Fatalf("merger lists %d branches after %d sessions with %d live at once", n, sessions, liveAtOnce)
	}
	waitForGoroutines(t, base)
}

// TestFanInSessionCloseAck: the acknowledgement of a SessionSplit close must
// come strictly after the replica's last record.  That record and the
// branch's evClosed always travel in different frames of the merge queue,
// and evRetire races them from the dispatcher's side; a slow last record
// makes evRetire overtake it.
func TestFanInSessionCloseAck(t *testing.T) { bothPlans(t, testFanInSessionCloseAck) }

func testFanInSessionCloseAck(t *testing.T, m execMode) {
	for _, b := range []int{1, 8} {
		t.Run(fmt.Sprintf("B%d", b), func(t *testing.T) {
			const sessions, burst = 40, 3
			slow := NewBox("ackslow", MustParseSignature("(<n>) -> (<n>)"),
				func(args []any, out *Emitter) error {
					if args[0].(int) == burst-1 {
						time.Sleep(200 * time.Microsecond) // the last record lags its close
					}
					return out.Out(1, args[0].(int))
				})
			n := SessionSplit("ackmux", Serial(slow, MustFilter("{<n>} -> {<n>=<n>+100}")), "sid")
			h := m.Start(context.Background(), n, WithStreamBatch(b), WithBoxWorkers(1))
			defer h.Cancel()
			go func() {
				for s := 0; s < sessions; s++ {
					for i := 0; i < burst; i++ {
						if h.Send(NewRecord().SetTag("n", i).SetTag("sid", s)) != nil {
							return
						}
					}
					if h.Send(NewReplicaCloseAck("sid", s)) != nil {
						return
					}
				}
				h.Close()
			}()
			seen := map[int]int{}
			acked := map[int]bool{}
			for r := range h.Out() {
				sid := tagOf(t, r, "sid")
				if IsReplicaClose(r) {
					if seen[sid] != burst {
						t.Fatalf("session %d acknowledged after %d of %d records", sid, seen[sid], burst)
					}
					acked[sid] = true
					continue
				}
				if acked[sid] {
					t.Fatalf("session %d: record %v after its acknowledgement", sid, r)
				}
				seen[sid]++
			}
			h.Wait()
			if len(acked) != sessions {
				t.Fatalf("%d of %d sessions acknowledged", len(acked), sessions)
			}
			if g := replicaGauge(h.Stats(), "ackmux"); g != 0 {
				t.Fatalf("replica gauge after all closes: %d", g)
			}
		})
	}
}
