package core

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// replicaGauge reads the live-replica gauge of a named split.
func replicaGauge(stats *Stats, name string) int64 {
	return stats.Counter("split." + name + ".replicas")
}

// waitCounter polls a stats counter until it reaches want or the deadline
// passes (the close protocol settles asynchronously with the drain).
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

// TestSplitReplicaCloseProtocol: the in-band close record retires exactly
// the addressed replica — the gauge decrements, records routed before the
// close still reach the replica, and a later record with the same key gets
// a fresh replica.
func TestSplitReplicaCloseProtocol(t *testing.T) { bothPlans(t, testSplitReplicaCloseProtocol) }

func testSplitReplicaCloseProtocol(t *testing.T, m execMode) {
	n := NamedSplit("cp", incBox("cpinc", 1), "k")
	h := m.Start(context.Background(), n)
	send := func(r *Record) {
		t.Helper()
		if err := h.Send(r); err != nil {
			t.Fatal(err)
		}
	}
	var got []int
	recv := func() *Record {
		t.Helper()
		select {
		case r := <-h.Out():
			return r
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for output")
			return nil
		}
	}
	for k := 0; k < 3; k++ {
		send(NewRecord().SetTag("n", 10*k).SetTag("k", k))
	}
	for i := 0; i < 3; i++ {
		v, _ := recv().Tag("n")
		got = append(got, v)
	}
	if g := replicaGauge(h.Stats(), "cp"); g != 3 {
		t.Fatalf("replicas after 3 keys: %d", g)
	}
	// Retire key 1; its replica drains and the gauge drops.
	send(NewReplicaClose("k", 1))
	waitCounter(t, func() int64 { return replicaGauge(h.Stats(), "cp") }, 2, "replicas after close")
	waitCounter(t, func() int64 { return h.Stats().Counter("split.cp.closed") }, 1, "closed counter")
	// Same key again: a fresh replica, fully functional.
	send(NewRecord().SetTag("n", 100).SetTag("k", 1))
	if v, _ := recv().Tag("n"); v != 101 {
		t.Fatalf("post-close record lost: got %d", v)
	}
	waitCounter(t, func() int64 { return replicaGauge(h.Stats(), "cp") }, 3, "replicas after reopen")
	// Closing a key with no replica is a no-op.
	send(NewReplicaClose("k", 99))
	h.Close()
	for range h.Out() {
	}
	h.Wait()
	if len(got) != 3 {
		t.Fatalf("lost pre-close outputs: %v", got)
	}
}

// TestSplitReplicaCloseAck: the acknowledgement variant re-emits the close
// record downstream strictly after the replica's last output — and
// immediately when no replica exists.
func TestSplitReplicaCloseAck(t *testing.T) { bothPlans(t, testSplitReplicaCloseAck) }

func testSplitReplicaCloseAck(t *testing.T, m execMode) {
	n := NamedSplit("ack", incBox("ackinc", 1), "k")
	h := m.Start(context.Background(), n)
	const burst = 5
	for i := 0; i < burst; i++ {
		if err := h.Send(NewRecord().SetTag("n", i).SetTag("k", 7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Send(NewReplicaCloseAck("k", 7)); err != nil {
		t.Fatal(err)
	}
	// No replica for key 8: the ack comes back alone.
	if err := h.Send(NewReplicaCloseAck("k", 8)); err != nil {
		t.Fatal(err)
	}
	h.Close()
	var recs []*Record
	for r := range h.Out() {
		recs = append(recs, r)
	}
	h.Wait()
	if len(recs) != burst+2 {
		t.Fatalf("got %d records, want %d: %v", len(recs), burst+2, recs)
	}
	// The key-8 ack (no replica) may arrive at any position; the key-7 ack
	// must come strictly after all of its replica's outputs.
	acks, seen := 0, 0
	for _, r := range recs {
		if !IsReplicaClose(r) {
			seen++
			continue
		}
		acks++
		if k, _ := r.Tag("k"); k == 7 && seen != burst {
			t.Fatalf("key-7 ack arrived after only %d of %d data records: %v", seen, burst, recs)
		}
	}
	if acks != 2 {
		t.Fatalf("acks = %d, want 2 (%v)", acks, recs)
	}
	if g := replicaGauge(h.Stats(), "ack"); g != 0 {
		t.Fatalf("replica gauge after close: %d", g)
	}
}

// TestSplitDetCloseAck: the close protocol on the deterministic variant —
// the ack still follows every buffered region of the retired replica.
func TestSplitDetCloseAck(t *testing.T) { bothPlans(t, testSplitDetCloseAck) }

func testSplitDetCloseAck(t *testing.T, m execMode) {
	n := NamedSplitDet("dack", incBox("dackinc", 1), "k")
	inputsDone := make(chan struct{})
	h := m.Start(context.Background(), n)
	go func() {
		defer close(inputsDone)
		for i := 0; i < 6; i++ {
			_ = h.Send(NewRecord().SetTag("n", i).SetTag("k", i%2))
		}
		_ = h.Send(NewReplicaCloseAck("k", 0))
		_ = h.Send(NewRecord().SetTag("n", 50).SetTag("k", 1))
		h.Close()
	}()
	var recs []*Record
	for r := range h.Out() {
		recs = append(recs, r)
	}
	h.Wait()
	<-inputsDone
	if len(recs) != 8 { // 7 data + 1 ack
		t.Fatalf("got %d records: %v", len(recs), recs)
	}
	// Every key-0 data record precedes the ack.
	ackAt := -1
	lastK0 := -1
	for i, r := range recs {
		if IsReplicaClose(r) {
			ackAt = i
			continue
		}
		if k, _ := r.Tag("k"); k == 0 {
			lastK0 = i
		}
	}
	if ackAt < 0 || lastK0 > ackAt {
		t.Fatalf("ack at %d, last key-0 record at %d: %v", ackAt, lastK0, recs)
	}
}

// TestSplitCloseForwardsThroughOtherSplits: a close record addressed to an
// inner split crosses an outer split (whose index tag it lacks) instead of
// being dropped as untagged.
func TestSplitCloseForwardsThroughOtherSplits(t *testing.T) {
	bothPlans(t, testSplitCloseForwardsThroughOtherSplits)
}

func testSplitCloseForwardsThroughOtherSplits(t *testing.T, m execMode) {
	n := Serial(
		NamedSplit("outer", incBox("oi", 1), "a"),
		NamedSplit("inner", incBox("ii", 1), "b"),
	)
	h := m.Start(context.Background(), n)
	if err := h.Send(NewRecord().SetTag("n", 1).SetTag("a", 0).SetTag("b", 5)); err != nil {
		t.Fatal(err)
	}
	if r := <-h.Out(); func() int { v, _ := r.Tag("n"); return v }() != 3 {
		t.Fatalf("pipeline result: %v", r)
	}
	if err := h.Send(NewReplicaClose("b", 5)); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, func() int64 { return replicaGauge(h.Stats(), "inner") }, 0,
		"inner replicas after forwarded close")
	if u := h.Stats().Counter("split.outer.untagged"); u != 0 {
		t.Fatalf("outer counted the close record as untagged (%d)", u)
	}
	if g := replicaGauge(h.Stats(), "outer"); g != 1 {
		t.Fatalf("outer replicas: %d, want 1 (close must not touch it)", g)
	}
	if errs := h.Stats().Counter("runtime.errors"); errs != 0 {
		t.Fatalf("forwarded close raised %d runtime errors", errs)
	}
	h.Close()
	for range h.Out() {
	}
	h.Wait()
}

// nestedSplit is a split whose output is a branch of another site.
type nestedSplit struct {
	name string
	net  Node
}

// nestedSplits puts the split name over body where its output is another
// site's branch: the last node of a parallel branch, and that parallel as a
// star stage, whose filter sends what leaves the split — records and
// acknowledgements alike — out at the next tap.  Records carrying <k> take
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

// TestNestedSplitCloseAck: the close protocol at a split whose output is a
// branch of another site, with replicas stepped (W=1), spawned (W=2) and as
// the engine decides (W unset).  Each acknowledgement comes strictly after its
// replica's last record — the last one lags — a close for a key with no
// replica still acknowledges, and the gauge ends at zero.
func TestNestedSplitCloseAck(t *testing.T) { bothPlans(t, testNestedSplitCloseAck) }

func testNestedSplitCloseAck(t *testing.T, m execMode) {
	const sessions, burst, absent = 24, 3, 999
	slow := NewBox("nackslow", MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			if args[0].(int) == burst-1 {
				time.Sleep(200 * time.Microsecond) // the last record lags its close
			}
			return out.Out(1, args[0].(int))
		})
	body := Serial(slow, MustFilter("{<n>} -> {<n>=<n>+100}"))
	for _, nest := range nestedSplits("nack", body) {
		for _, w := range []int{0, 1, 2} {
			for _, b := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/W%d/B%d", nest.name, w, b), func(t *testing.T) {
					opts := []Option{WithStreamBatch(b)}
					if w > 0 {
						opts = append(opts, WithBoxWorkers(w))
					}
					h := m.Start(context.Background(), nest.net, opts...)
					defer h.Cancel()
					go func() {
						for s := 0; s < sessions; s++ {
							for i := 0; i < burst; i++ {
								if h.Send(NewRecord().SetTag("n", i).SetTag("k", s)) != nil {
									return
								}
							}
							if h.Send(NewReplicaCloseAck("k", s)) != nil {
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
					if len(acked) != sessions+1 || !acked[absent] {
						t.Fatalf("%d of %d keys acknowledged (absent key: %v)", len(acked), sessions+1, acked[absent])
					}
					if g := replicaGauge(h.Stats(), "nack"); g != 0 {
						t.Fatalf("replica gauge after all closes: %d", g)
					}
				})
			}
		}
	}
}

// TestNestedSplitCancelMidRetire: a run cancelled while the replicas of a
// nested split drain behind their close records gives back every record it
// held — the acknowledgements it had been handed too — and every goroutine.
// The output is read to its end, so the cancellation meets replicas at work,
// not a network parked behind a reader that stopped.
func TestNestedSplitCancelMidRetire(t *testing.T) { bothPlans(t, testNestedSplitCancelMidRetire) }

func testNestedSplitCancelMidRetire(t *testing.T, m execMode) {
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
				h := m.Start(context.Background(), nest.net, WithBoxWorkers(w))
				for k := 0; k < keys; k++ {
					for i := 0; i < burst; i++ {
						if err := h.Send(AcquireRecord().SetTag("n", i).SetTag("k", k)); err != nil {
							t.Fatal(err)
						}
					}
					ack := AcquireRecord().SetTag(replicaCloseTag, 1).SetTag(replicaAckTag, 1).SetTag("k", k)
					if err := h.Send(ack); err != nil {
						t.Fatal(err)
					}
				}
				drained := make(chan struct{})
				go func() {
					defer close(drained)
					for range h.Out() {
					}
				}()
				time.Sleep(time.Millisecond) // the replicas at work, their close records on the way
				h.Cancel()
				<-drained
				h.Wait()
				waitForGoroutines(t, base)
				waitPoolLive(t, live)
			})
		}
	}
}

// TestReservedLabelsRejectedByParsers: signatures, patterns and filters must
// refuse labels in the runtime's reserved namespace.
func TestReservedLabelsRejectedByParsers(t *testing.T) {
	if _, err := ParseSignature("(<__snet_session>) -> (<n>)"); err == nil {
		t.Fatal("signature with reserved tag parsed")
	}
	if _, err := ParsePattern("{<__snet_close>}"); err == nil {
		t.Fatal("pattern with reserved tag parsed")
	}
	if _, err := ParseFilter("{<n>} -> {<__snet_session>=1}"); err == nil {
		t.Fatal("filter synthesizing reserved tag parsed")
	}
	if _, err := ParsePattern("{__snet_field}"); err == nil {
		t.Fatal("pattern with reserved field parsed")
	}
	if !NewRecord().SetTag("__snet_session", 1).HasReservedLabel() {
		t.Fatal("HasReservedLabel missed a reserved tag")
	}
	if NewRecord().SetTag("n", 1).SetField("s", "x").HasReservedLabel() {
		t.Fatal("HasReservedLabel false positive")
	}
}

// TestHideTags: hiding a tag is a filter that consumes it — the rest of the
// record is inherited, and a record without the tag passes unchanged.
func TestHideTags(t *testing.T) { bothPlans(t, testHideTags) }

func testHideTags(t *testing.T, m execMode) {
	n := Serial(incBox("h", 1), MustFilter("{<aux>} -> {}"), MustFilter("{<absent>} -> {}"))
	out, _, err := m.RunAll(context.Background(),
		n, []*Record{NewRecord().SetTag("n", 1).SetTag("aux", 9).SetTag("keep", 3)})
	if err != nil || len(out) != 1 {
		t.Fatalf("out=%d err=%v", len(out), err)
	}
	if _, ok := out[0].Tag("aux"); ok {
		t.Fatalf("aux survived: %v", out[0])
	}
	if v, _ := out[0].Tag("keep"); v != 3 {
		t.Fatalf("keep lost: %v", out[0])
	}
	if v, _ := out[0].Tag("n"); v != 2 {
		t.Fatalf("n: %v", out[0])
	}
}
