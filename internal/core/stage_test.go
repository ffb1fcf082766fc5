package core

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// Tests of a split nested in another site's branch — as inside a star stage,
// the wavefront's shape, where its replicas hold synchrocell state:
// cancellation in the middle of a stream, and a hand-over while a replica
// holds half a join.  They pin what the runtime promises whichever goroutine
// steps the split.

// joinStage is a star whose stage is a parallel of a box on field x and,
// behind a tap, a split over sync({a},{b})..box: per key the first {b} waits
// for its {a}, every record after the join passes the cell, and the box
// forwards <n>, slowly when slow says so.  A filter behind the parallel sends
// what leaves it out at the next tap.
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

// TestStarStageSplitCancelMidRetire: a run cancelled while the replicas of
// that split work through their bursts gives back every record it held —
// stored halves of joins too — and every goroutine.  The output is read to its
// end, so the cancellation meets replicas at work.
func TestStarStageSplitCancelMidRetire(t *testing.T) { eachCell(t, testStarStageSplitCancelMidRetire) }

func testStarStageSplitCancelMidRetire(t *testing.T, _ cell) {
	const keys, burst = 8, 4
	for _, w := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("W%d", w), func(t *testing.T) {
			base, live := goroutineCount(), poolLiveSettled(t)
			var opts []Option
			if w > 0 {
				opts = append(opts, WithBoxWorkers(w))
			}
			h := compileNet(joinStage("scancel", func(int) bool { return true })).Start(context.Background(), opts...)
			for k := 0; k < keys; k++ {
				for _, r := range joinBurst(k, burst, AcquireRecord) {
					if err := h.Send(r); err != nil {
						t.Fatal(err)
					}
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
func TestStarStageHandOverHalfJoin(t *testing.T) { eachCell(t, testStarStageHandOverHalfJoin) }

func testStarStageHandOverHalfJoin(t *testing.T, _ cell) {
	atLeastProcs(t, 2) // so that a box nobody gave a width has one to turn to
	net := joinStage("hjoin", func(int) bool { return false })
	fwd := findBox(t, net, "hjoin_fwd")
	live := poolLiveSettled(t)
	h := compileNet(net).Start(context.Background())
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
	if st.Counter("box.hjoin_fwd.escalated") == 0 {
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

// nestedSplit is a split whose output is a branch of another site.
type nestedSplit struct {
	name string
	net  Node
}

// nestedSplits puts the split name over body where its output is another
// site's branch: the last node of a parallel branch, and that parallel as a
// star stage, whose filter sends what leaves the split out at the next tap.  Records carrying <k> take
// the split's branch; the other one takes field x.
func nestedSplits(name string, body Node) []nestedSplit {
	par := func() Node {
		other := NewBox(name+"_x", MustParseSignature("(x) -> (x)"),
			func(args []any, out *Emitter) error { return out.Out(1, args[0]) })
		return Parallel(other, Serial(Observe(name+"_tap", nil), NamedSplit(name, body, "k")))
	}
	return []nestedSplit{
		{"parallel branch", par()},
		{"star stage", NamedStar(name+"_star", Serial(par(), MustFilter("{<k>} -> {<k>, <done>=1}")),
			MustParsePattern("{<done>}"))},
	}
}

// TestNestedSplitCancelMidRetire: a run cancelled while the replicas of a
// nested split work through their bursts gives back every record it held and
// every goroutine.  The output is read to its end, so the cancellation meets
// replicas at work, not a network parked behind a reader that stopped.
func TestNestedSplitCancelMidRetire(t *testing.T) { eachCell(t, testNestedSplitCancelMidRetire) }

func testNestedSplitCancelMidRetire(t *testing.T, _ cell) {
	const keys, burst = 8, 4
	slow := NewBox("ncslow", MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			time.Sleep(300 * time.Microsecond)
			return out.Out(1, args[0].(int))
		})
	for _, nest := range nestedSplits("ncancel", slow) {
		for _, w := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/W%d", nest.name, w), func(t *testing.T) {
				base, live := goroutineCount(), poolLiveSettled(t)
				h := compileNet(nest.net).Start(context.Background(), WithBoxWorkers(w))
				for k := 0; k < keys; k++ {
					for i := 0; i < burst; i++ {
						if err := h.Send(AcquireRecord().SetTag("n", i).SetTag("k", k)); err != nil {
							t.Fatal(err)
						}
					}
				}
				drained := make(chan struct{})
				go func() {
					defer close(drained)
					for range h.Out() {
					}
				}()
				time.Sleep(time.Millisecond) // the replicas at work
				h.Cancel()
				<-drained
				h.Wait()
				waitForGoroutines(t, base)
				waitPoolLive(t, live)
			})
		}
	}
}
