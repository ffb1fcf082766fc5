package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// newTestEnv builds a standalone runEnv for transport-level tests.  Its
// cancel ends the run's workers too, as a one-shot run's cut does.
func newTestEnv(buf, batch int) (*runEnv, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	env := &runEnv{ctx: ctx, stats: NewStats(), buf: buf, batch: batch}
	return env, func() { cancel(); env.end() }
}

func itemN(n int) item { return item{rec: NewRecord().SetTag("n", n)} }

// A hot writer coalesces items into multi-item frames: 64 records at B=8
// over an ample buffer must cost far fewer than 64 channel handoffs.
func TestStreamBatchingAmortizesFrames(t *testing.T) {
	env, cancel := newTestEnv(32, 8)
	defer cancel()
	r, w := new(stream).open(env, env.buf)
	for i := 0; i < 64; i++ {
		if !w.send(itemN(i)) {
			t.Fatal("send failed")
		}
	}
	w.close()
	for i := 0; i < 64; i++ {
		it, ok := r.recv()
		if !ok || it.rec == nil {
			t.Fatalf("item %d: ok=%v it=%+v", i, ok, it)
		}
		if v, _ := it.rec.Tag("n"); v != i {
			t.Fatalf("item %d out of order: got %d", i, v)
		}
	}
	if _, ok := r.recv(); ok {
		t.Fatal("stream did not close")
	}
	frames := env.stats.Counter("stream.frames")
	if frames != 8 {
		t.Fatalf("64 records at B=8 took %d frames, want 8", frames)
	}
	if got := env.stats.Counter("stream.records"); got != 64 {
		t.Fatalf("stream.records = %d, want 64", got)
	}
	if hwm := env.stats.Max("stream.frame.hwm"); hwm != 8 {
		t.Fatalf("stream.frame.hwm = %d, want 8", hwm)
	}
}

// Markers are flush barriers: a marker must be delivered immediately, and
// every record buffered before it must arrive first.
func TestStreamMarkerFlushesBarrier(t *testing.T) {
	env, cancel := newTestEnv(32, 64)
	defer cancel()
	r, w := new(stream).open(env, env.buf)
	w.send(itemN(0))
	w.send(itemN(1))
	if !w.send(item{mk: new(marker)}) {
		t.Fatal("marker send failed")
	}
	// Without closing or idling the writer, all three items must already
	// be readable.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2; i++ {
			it, ok := r.recv()
			if !ok || it.rec == nil {
				t.Errorf("record %d not delivered before marker: ok=%v", i, ok)
			}
		}
		it, ok := r.recv()
		if !ok || it.mk == nil {
			t.Error("marker not delivered")
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("marker barrier did not flush: reader stuck")
	}
	w.close()
}

// The idle flush: a node blocking on its input must first flush the writers
// it owns, so a single record never waits for a batch that will not fill.
func TestStreamIdleFlushKeepsLatencyFlat(t *testing.T) {
	env, cancel := newTestEnv(32, 64)
	defer cancel()
	upR, upW := new(stream).open(env, env.buf)     // the node's input
	downR, downW := new(stream).open(env, env.buf) // the node's output
	go func() {
		upR.autoFlush(downW)
		for {
			it, ok := upR.recv()
			if !ok {
				downW.close()
				return
			}
			downW.send(it)
		}
	}()
	// One record in, stream then idle: the forwarding node's recv must
	// flush the pending batch of one.
	upW.send(itemN(7))
	upW.flush()
	deadline := time.After(2 * time.Second)
	got := make(chan item, 1)
	go func() {
		it, _ := downR.recv()
		got <- it
	}()
	select {
	case it := <-got:
		if it.rec == nil {
			t.Fatal("no record")
		}
	case <-deadline:
		t.Fatal("record stuck in pending batch while input idle")
	}
	upW.close()
}

// Discard drains a stream in the background and counts the thrown-away
// data records (markers are not counted).
func TestStreamDiscardCountsRecords(t *testing.T) {
	env, cancel := newTestEnv(32, 4)
	defer cancel()
	r, w := new(stream).open(env, env.buf)
	for i := 0; i < 10; i++ {
		w.send(itemN(i))
	}
	w.send(item{mk: new(marker)})
	// Consume three, discard the rest.
	for i := 0; i < 3; i++ {
		if _, ok := r.recv(); !ok {
			t.Fatal("recv failed")
		}
	}
	r.Discard()
	r.Discard() // idempotent
	w.close()
	deadline := time.Now().Add(2 * time.Second)
	for env.stats.Counter("stream.discarded") != 7 {
		if time.Now().After(deadline) {
			t.Fatalf("stream.discarded = %d, want 7", env.stats.Counter("stream.discarded"))
		}
		time.Sleep(time.Millisecond)
	}
}

// sendBatchDirect accepts concurrent senders (the network-boundary contract).
func TestStreamSendDirectConcurrent(t *testing.T) {
	env, cancel := newTestEnv(8, 8)
	defer cancel()
	r, w := new(stream).open(env, env.buf)
	const senders, per = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := w.sendBatchDirect(context.Background(), []*Record{itemN(i).rec}); err != nil {
					t.Errorf("sendBatchDirect: %v", err)
					return
				}
			}
		}()
	}
	got := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := r.recv(); !ok {
				return
			}
			got++
		}
	}()
	wg.Wait()
	w.close()
	<-done
	if got != senders*per {
		t.Fatalf("received %d records, want %d", got, senders*per)
	}
}

// hopSite is a site of the root spine every record crosses: a parallel that
// routes all of them to inner, beside a branch no record matches.  A started
// run (run_test.go) keeps its dispatcher and merge queue, so a pipeline of
// sites is a pipeline of stream hops.
func hopSite(inner Node) Node {
	return Parallel(inner, MustFilter("{<never>} -> {<never>}"))
}

// End to end: the run-level frame counters must show amortization — a hot
// pipeline at B=64 takes fewer frames per record than at B=1.  The subject is
// the frame transport, so the pipeline is three root-spine sites in a started
// run, each a stream hop.
func TestStreamStatsShowAmortization(t *testing.T) {
	const n = 256
	pipeline := func(b int) (frames, records int64) {
		net := Serial(hopSite(incBox("s1", 1)), hopSite(incBox("s2", 1)), hopSite(incBox("s3", 1)))
		inputs := seqInputs(n, func(i int, r *Record) { r.SetTag("n", i) })
		out, stats := cell{t: t, ref: true}.runNet(t, net, inputs, WithStreamBatch(b), WithBoxWorkers(1))
		if len(out) != n {
			t.Fatalf("B=%d: out=%d", b, len(out))
		}
		return stats.Counter("stream.frames"), stats.Counter("stream.records")
	}
	f1, r1 := pipeline(1)
	f64, r64 := pipeline(64)
	if r1 != r64 {
		t.Fatalf("record counts differ: %d vs %d", r1, r64)
	}
	if r1 < 3*n {
		t.Fatalf("%d records crossed streams, want at least %d: one hop per site", r1, 3*n)
	}
	if f64 >= f1 {
		t.Fatalf("B=64 should use fewer frames than B=1: %d vs %d", f64, f1)
	}
	t.Logf("B=1: %d frames / %d records; B=64: %d frames", f1, r1, f64)
}

// Markers must not be double-counted as records anywhere in the det plane: a
// deterministic site between two root-spine sites broadcasts a sort marker
// per record, and the streams it crosses count the same records as the same
// net with a non-deterministic site, which sends none.
func TestStreamRecordCounterExcludesMarkers(t *testing.T) {
	const n = 20
	records := func(par func(...Node) Node) int64 {
		net := Serial(hopSite(Observe("", nil)),
			par(incBox("ma", 1), MustFilter("{<b>} -> {<b>=<b>}")), hopSite(Observe("", nil)))
		inputs := seqInputs(n, func(i int, r *Record) {
			if i%2 == 0 {
				r.SetTag("n", i)
			} else {
				r.SetTag("b", i)
			}
		})
		out, stats := cell{t: t, ref: true}.runNet(t, net, inputs, WithStreamBatch(8))
		if len(out) != n {
			t.Fatalf("got %d records", len(out))
		}
		if fr := stats.Counter("stream.frames"); fr == 0 {
			t.Fatal("no frames counted")
		}
		return stats.Counter("stream.records")
	}
	det, nondet := records(ParallelDet), records(Parallel)
	if det != nondet || det < 2*n {
		t.Fatalf("stream.records: %d with sort markers, %d without; want equal and at least %d", det, nondet, 2*n)
	}
}

func ExampleWithStreamBatch() {
	inc := NewBox("inc", MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error { return out.Out(1, args[0].(int)+1) })
	out, _, _ := MustCompile(inc).RunAll(context.Background(),
		[]*Record{NewRecord().SetTag("n", 41)},
		WithStreamBatch(64), WithBuffer(16))
	fmt.Println(out[0])
	// Output: {<n>=42}
}
