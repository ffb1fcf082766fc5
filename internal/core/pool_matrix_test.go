package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// The detprop × arena matrix: the deterministic-order guarantee and the
// record-arena accounting must both hold at every combination of box worker
// width W and stream batch size B — the two knobs that reshape how many
// records are in flight and which code paths (sequential vs concurrent box
// engine, single-item vs slab-backed frames) carry them.

// poolLiveSettled samples the arena's live count once background drainers
// from earlier tests have stopped moving it.
func poolLiveSettled(t *testing.T) int64 {
	t.Helper()
	live := PoolStats().Live()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		l := PoolStats().Live()
		if l == live {
			return live
		}
		live = l
	}
	return live
}

// waitPoolLive polls until the arena's live count returns to base, dumping
// the counters on timeout — a pooled-but-unreleased record anywhere in the
// runtime's release audit lands here.
func waitPoolLive(t *testing.T, base int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if PoolStats().Live() == base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	s := PoolStats()
	t.Fatalf("record arena leak: live=%d want %d (acquired=%d recycled=%d disowned=%d)",
		s.Live(), base, s.Acquired, s.Recycled, s.Disowned)
}

// pooledSeqInputs is seqInputs built from arena records, so the ingress leg
// of the pipeline is pooled too (RunAll inputs are consumed by the first
// node, which releases them; outputs crossing Handle.Out are disowned).
func pooledSeqInputs(n int, extra func(i int, r *Record)) []*Record {
	out := make([]*Record, n)
	for i := 0; i < n; i++ {
		out[i] = AcquireRecord().SetTag("seq", i)
		if extra != nil {
			extra(i, out[i])
		}
	}
	return out
}

// TestDetPoolMatrix runs a deterministic star-inside-split network — box
// emissions, filter rewrites, replica creation, order-restoring merges — at
// every (W, B) in {1,4,16} × {1,8,64} and checks three invariants per cell:
// input order survives to the output, records in == records out with nothing
// discarded, and the arena's live count returns to its pre-run baseline.
func TestDetPoolMatrix(t *testing.T) {
	for _, w := range []int{1, 4, 16} {
		for _, b := range []int{1, 8, 64} {
			t.Run(fmt.Sprintf("W%d_B%d", w, b), func(t *testing.T) {
				eachCell(t, func(t *testing.T, m cell) {
					base := poolLiveSettled(t)
					inner := Serial(
						StarDet(varDecBox(int64(w*100+b)), MustParsePattern("{<done>}")),
						MustFilter("{<seq>,<done>} -> {<seq>, <out>=<seq>+1}"),
					)
					n := SplitDet(inner, "k")
					inputs := pooledSeqInputs(detN, func(i int, r *Record) {
						r.SetTag("k", i%3).SetTag("n", i%5)
					})
					out, stats := m.runNet(t, n, inputs,
						WithBoxWorkers(w), WithStreamBatch(b))
					assertOrdered(t, collectSeqs(t, out), detN)
					for i, r := range out {
						if tagOf(t, r, "out") != i+1 {
							t.Fatalf("record %d: filter output <out>=%d, want %d",
								i, tagOf(t, r, "out"), i+1)
						}
					}
					if d := stats.Counter("stream.discarded"); d != 0 {
						t.Fatalf("drained run discarded %d records", d)
					}
					if stats.Counter("stream.records") < int64(detN) {
						t.Fatalf("transport counted %d records for %d inputs",
							stats.Counter("stream.records"), detN)
					}
					waitPoolLive(t, base)
				})
			})
		}
	}
}

// TestPoolAccountingNondet is the same arena invariant on the
// nondeterministic variants (no sort-record machinery): every record still
// has exactly one release point.
func TestPoolAccountingNondet(t *testing.T) { eachCell(t, testPoolAccountingNondet) }

func testPoolAccountingNondet(t *testing.T, m cell) {
	base := poolLiveSettled(t)
	n := Split(Serial(
		Star(varDecBox(3), MustParsePattern("{<done>}")),
		MustFilter("{<seq>,<done>} -> {<seq>}"),
	), "k")
	inputs := pooledSeqInputs(detN, func(i int, r *Record) {
		r.SetTag("k", i%4).SetTag("n", i%3)
	})
	out, _ := m.runNet(t, n, inputs, WithBoxWorkers(4), WithStreamBatch(8))
	assertMultiset(t, collectSeqs(t, out), detN)
	waitPoolLive(t, base)
}

// TestPoolAccountingSync covers the synchrocell paths: merged records are
// rebuilt into a pooled output, stored partners are released on fire, and a
// starved cell's stash is released at close.
func TestPoolAccountingSync(t *testing.T) { eachCell(t, testPoolAccountingSync) }

func testPoolAccountingSync(t *testing.T, m cell) {
	base := poolLiveSettled(t)
	n := Sync(MustParsePattern("{a}"), MustParsePattern("{b}"))
	mk := func(label string, i int) *Record {
		return AcquireRecord().SetField(label, i).SetTag("seq", i)
	}
	// One full match fires the cell; after firing it is an identity, so the
	// remaining three records pass through untouched.
	inputs := []*Record{mk("a", 0), mk("b", 0), mk("b", 1), mk("a", 1), mk("a", 2)}
	out, _ := m.runNet(t, n, inputs)
	if len(out) != 4 {
		t.Fatalf("got %d records, want 1 merged + 3 passed through", len(out))
	}
	waitPoolLive(t, base)

	// A cell that never completes: the first {a} is stored, later ones pass
	// through, and close releases the starved stash (counted, not emitted) —
	// still fully accounted.
	starved := NamedSync("stash", MustParsePattern("{a}"), MustParsePattern("{b}"))
	out, stats := m.runNet(t, starved, []*Record{mk("a", 0), mk("a", 1)})
	if len(out) != 1 {
		t.Fatalf("starved cell emitted %d records, want 1 passed through", len(out))
	}
	if s := stats.Counter("sync.stash.starved"); s != 1 {
		t.Fatalf("sync.stash.starved = %d, want 1", s)
	}
	waitPoolLive(t, base)
}

// TestSyncCancelledBehindFullOutput: a half-filled synchrocell is blocked
// forwarding a record it does not store into a full output when the run is
// cancelled.  The cell's end hook runs on that path like on any other: the
// record it holds returns to the arena and counts as starved.  (The receive
// loop the cell used to have returned from the failed send and leaked it.)
func TestSyncCancelledBehindFullOutput(t *testing.T) {
	eachCell(t, testSyncCancelledBehindFullOutput)
}

func testSyncCancelledBehindFullOutput(t *testing.T, _ cell) {
	base, live := goroutineCount(), poolLiveSettled(t)
	cell := NamedSync("behind", MustParsePattern("{a}"), MustParsePattern("{b}"))
	h := compileNet(cell).Start(context.Background(), WithBuffer(0), WithStreamBatch(1))
	if err := h.Send(AcquireRecord().SetField("a", 0)); err != nil {
		t.Fatal(err)
	}
	// Nobody reads Out: the first {c} sits in the boundary adapter's hands,
	// the second blocks the cell in its send, the third blocks the feeder.
	var sent atomic.Int32
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for {
			r := AcquireRecord().SetField("c", 0)
			if h.Send(r) != nil {
				ReleaseRecord(r) // refused: still the sender's
				return
			}
			sent.Add(1)
		}
	}()
	waitCounter(t, func() int64 { return int64(sent.Load()) }, 2, "records accepted before the output filled up")
	time.Sleep(5 * time.Millisecond) // let the cell park in its send
	h.Cancel()
	h.Wait()
	<-fed
	// A cancelled run's nodes unwind on their own time: wait for the cell's.
	waitCounter(t, func() int64 { return h.Stats().Counter("sync.behind.starved") }, 1, "sync.behind.starved")
	waitForGoroutines(t, base)
	waitPoolLive(t, live)
}

// TestPoolDisownAtBoundary pins the boundary semantics: records read from
// Handle.Out left the arena (disowned, GC-managed), so releasing them is a
// no-op and holding them forever is not a leak.
func TestPoolDisownAtBoundary(t *testing.T) { eachCell(t, testPoolDisownAtBoundary) }

func testPoolDisownAtBoundary(t *testing.T, m cell) {
	base := poolLiveSettled(t)
	before := PoolStats()
	out, _ := m.runNet(t, incBox("pd", 1), pooledSeqInputs(8, func(i int, r *Record) {
		r.SetTag("n", i)
	}))
	if len(out) != 8 {
		t.Fatalf("got %d records", len(out))
	}
	waitPoolLive(t, base)
	after := PoolStats()
	if got := after.Disowned - before.Disowned; got < 8 {
		t.Fatalf("boundary disowned %d records, want >= 8", got)
	}
	for _, r := range out {
		ReleaseRecord(r) // must be a no-op on disowned records
	}
	for i, r := range out {
		if tagOf(t, r, "n") != i+1 {
			t.Fatalf("disowned record %d mutated after no-op release", i)
		}
	}
	waitPoolLive(t, base)
}

// waitCounter polls a counter until it reaches want or the deadline passes.
func waitCounter(t *testing.T, get func() int64, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if get() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s = %d, want %d", what, get(), want)
}
