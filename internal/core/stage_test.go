package core

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// Tests of a split nested in a parallel branch inside a star stage — the
// wavefront's shape — whose replicas hold synchrocell state: the close
// protocol, cancellation in the middle of a retire, and a hand-over while a
// replica holds half a join.  They pin what the runtime promises whichever
// goroutine steps the split.

// joinStage is a star whose stage is a parallel of a box on field x and,
// behind a tap, a split over sync({a},{b})..box: per key the first {b} waits
// for its {a}, every record after the join passes the cell, and the box
// forwards <n>, slowly when slow says so.  A filter behind the parallel sends
// what leaves it — records and acknowledgements alike — out at the next tap.
func joinStage(name string, slow func(n int) bool) Node {
	other := NewBox(name+"_x", MustParseSignature("(x) -> (x)"),
		func(args []any, out *Emitter) error { return out.Out(1, args[0]) })
	fwd := NewBox(name+"_fwd", MustParseSignature("(a,<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			if slow(args[1].(int)) {
				time.Sleep(200 * time.Microsecond)
			}
			return out.Out(1, args[1].(int))
		})
	body := Serial(NamedSync(name+"_join", MustParsePattern("{a}"), MustParsePattern("{b}")), fwd)
	par := Parallel(other, Serial(Observe(name+"_tap", nil), NamedSplit(name, body, "k")))
	return NamedStar(name+"_star", Serial(par, MustFilter("{<k>} -> {<k>, <done>=1}")), MustParsePattern("{<done>}"))
}

// joinBurst is what the tests send for key k: the {b} half, then burst
// records carrying a — the first completes the join.
func joinBurst(k, burst int, rec func() *Record) []*Record {
	recs := []*Record{rec().SetField("b", 0).SetTag("k", k)}
	for i := 0; i < burst; i++ {
		recs = append(recs, rec().SetField("a", i).SetTag("n", i).SetTag("k", k))
	}
	return recs
}

// TestStarStageSplitCloseAck: at a split nested in a parallel branch inside a
// star stage, each acknowledgement comes strictly after its replica's last
// record — the last one lags — a close for a key with no replica still
// acknowledges, every join fires once, and the gauge ends at zero.
func TestStarStageSplitCloseAck(t *testing.T) { bothPlans(t, testStarStageSplitCloseAck) }

func testStarStageSplitCloseAck(t *testing.T, m execMode) {
	const keys, burst, absent = 16, 3, 999
	for _, w := range []int{0, 1, 4} {
		for _, b := range []int{1, 8} {
			t.Run(fmt.Sprintf("W%d/B%d", w, b), func(t *testing.T) {
				opts := []Option{WithStreamBatch(b)}
				if w > 0 {
					opts = append(opts, WithBoxWorkers(w))
				}
				h := m.Start(context.Background(), joinStage("sack", func(n int) bool { return n == burst-1 }), opts...)
				defer h.Cancel()
				go func() {
					for k := 0; k < keys; k++ {
						for _, r := range joinBurst(k, burst, NewRecord) {
							if h.Send(r) != nil {
								return
							}
						}
						if h.Send(NewReplicaCloseAck("k", k)) != nil {
							return
						}
					}
					if h.Send(NewReplicaCloseAck("k", absent)) == nil {
						h.Close()
					}
				}()
				seen, acked := map[int]int{}, map[int]bool{}
				for r := range h.Out() {
					k := tagOf(t, r, "k")
					if IsReplicaClose(r) {
						if k != absent && seen[k] != burst {
							t.Fatalf("key %d acknowledged after %d of %d records", k, seen[k], burst)
						}
						acked[k] = true
						continue
					}
					if acked[k] {
						t.Fatalf("key %d: record %v after its acknowledgement", k, r)
					}
					seen[k]++
				}
				h.Wait()
				if len(acked) != keys+1 || !acked[absent] {
					t.Fatalf("%d of %d keys acknowledged (absent key: %v)", len(acked), keys+1, acked[absent])
				}
				st := h.Stats()
				if g := replicaGauge(st, "sack"); g != 0 {
					t.Fatalf("replica gauge after all closes: %d", g)
				}
				if f, s := st.Counter("sync.sack_join.fired"), st.Counter("sync.sack_join.starved"); f != keys || s != 0 {
					t.Fatalf("joins fired %d, starved %d; want %d and 0", f, s, keys)
				}
			})
		}
	}
}

// TestStarStageSplitCancelMidRetire: a run cancelled while the replicas of
// that split drain behind their close records gives back every record it held
// — stored halves of joins and the acknowledgements it had been handed — and
// every goroutine.  The output is read to its end, so the cancellation meets
// replicas at work.
func TestStarStageSplitCancelMidRetire(t *testing.T) { bothPlans(t, testStarStageSplitCancelMidRetire) }

func testStarStageSplitCancelMidRetire(t *testing.T, m execMode) {
	const keys, burst = 8, 4
	for _, w := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("W%d", w), func(t *testing.T) {
			base, live := goroutineCount(), poolLiveSettled(t)
			var opts []Option
			if w > 0 {
				opts = append(opts, WithBoxWorkers(w))
			}
			h := m.Start(context.Background(), joinStage("scancel", func(int) bool { return true }), opts...)
			for k := 0; k < keys; k++ {
				for _, r := range joinBurst(k, burst, AcquireRecord) {
					if err := h.Send(r); err != nil {
						t.Fatal(err)
					}
				}
				ack := AcquireRecord().SetTag(replicaCloseTag, 1).SetTag(replicaAckTag, 1).SetTag("k", k)
				if err := h.Send(ack); err != nil {
					t.Fatal(err)
				}
				// Half a join that never completes: a stored record at the cancel.
				if err := h.Send(AcquireRecord().SetField("b", 0).SetTag("k", keys+k)); err != nil {
					t.Fatal(err)
				}
			}
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				for range h.Out() {
				}
			}()
			time.Sleep(time.Millisecond)
			h.Cancel()
			<-drained
			h.Wait()
			waitForGoroutines(t, base)
			waitPoolLive(t, live)
		})
	}
}

// TestStarStageHandOverHalfJoin: a box in a replica of that split turns
// concurrent mid-run while the replica's synchrocell holds half a join.  The
// replica leaves the hands that stepped it with the stored half, and the join
// fires exactly once when its other half arrives.
func TestStarStageHandOverHalfJoin(t *testing.T) { bothPlans(t, testStarStageHandOverHalfJoin) }

func testStarStageHandOverHalfJoin(t *testing.T, m execMode) {
	atLeastProcs(t, 2) // so that a box nobody gave a width has one to turn to
	net := joinStage("hjoin", func(int) bool { return false })
	fwd := findBox(t, net, "hjoin_fwd")
	live := poolLiveSettled(t)
	h := m.Start(context.Background(), net)
	defer h.Cancel()
	send := func(r *Record) {
		t.Helper()
		if err := h.Send(r); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() *Record {
		t.Helper()
		select {
		case r := <-h.Out():
			return r
		case <-time.After(5 * time.Second):
			t.Fatal("no output")
		}
		return nil
	}
	send(AcquireRecord().SetField("b", 1).SetTag("k", 1)) // key 1: half a join
	for _, r := range joinBurst(0, 1, AcquireRecord) {    // key 0 joins: key 1's half is stored by now
		send(r)
	}
	if r := recv(); tagOf(t, r, "k") != 0 {
		t.Fatalf("first output %v, want key 0's join", r)
	}
	fwd.escalated.Store(true) // the engine's verdict: from the next record on it runs concurrently
	send(AcquireRecord().SetField("a", 7).SetTag("n", 7).SetTag("k", 1))
	if r := recv(); tagOf(t, r, "k") != 1 || tagOf(t, r, "n") != 7 {
		t.Fatalf("second output %v, want key 1's join", r)
	}
	h.Close()
	for r := range h.Out() {
		t.Errorf("unexpected output %v", r)
	}
	h.Wait()
	st := h.Stats()
	if f, s := st.Counter("sync.hjoin_join.fired"), st.Counter("sync.hjoin_join.starved"); f != 2 || s != 0 {
		t.Fatalf("joins fired %d, starved %d; want 2 and 0", f, s)
	}
	if m.fuse && st.Counter("box.hjoin_fwd.escalated") == 0 {
		t.Errorf("the box never ran concurrently: nothing was handed over")
	}
	waitPoolLive(t, live)
}

// findBox returns the box called name in the tree under n.
func findBox(t *testing.T, n Node, name string) *boxNode {
	t.Helper()
	var found *boxNode
	var walk func(Node)
	walk = func(n Node) {
		switch n := n.(type) {
		case *boxNode:
			if n.label == name {
				found = n
			}
		case *serialNode:
			walk(n.a)
			walk(n.b)
		case *parallelNode:
			for _, b := range n.branches {
				walk(b)
			}
		case *starNode:
			walk(n.operand)
		case *splitNode:
			walk(n.operand)
		}
	}
	walk(n)
	if found == nil {
		t.Fatalf("no box %s", name)
	}
	return found
}
