package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// Property-style determinism tests: for deterministic combinators the
// rendered output stream must be byte-identical whatever the box
// concurrency width W (given, or left to the engine, which then switches
// modes mid-stream), whatever the stream batch size B, and whatever
// latencies the invocations exhibit.  The (W=1, B=1) run defines the
// reference; every other (W, B) combination must reproduce it exactly —
// in particular, sort markers must stay flush barriers at any B — and so
// must both execution plans: the un-fused (1,1) run is the reference, the
// fused plan is swept over the same matrix.

// renderStream flattens a record sequence into one comparable string.
func renderStream(recs []*Record) string {
	var sb strings.Builder
	for _, r := range recs {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// latencyBox forwards <seq> (tagged with a branch witness) after a truly
// random sleep, so invocation completion order is unrelated to input order.
func latencyBox(name, field string, maxDelay time.Duration) Node {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(int64(len(name)) * 7919))
	return NewBox(name, MustParseSignature("("+field+",<seq>) -> (<seq>,<via_"+name+">)"),
		func(args []any, out *Emitter) error {
			mu.Lock()
			d := time.Duration(rng.Int63n(int64(maxDelay)))
			mu.Unlock()
			time.Sleep(d)
			return out.Out(1, args[1].(int), 1)
		})
}

func runDetProp(t *testing.T, mkNet func() Node, inputs func() []*Record) {
	t.Helper()
	atLeastProcs(t, 2) // so that the unset width can hand over mid-stream
	var want string
	for _, w := range []int{1, 4, 16, 0} {
		for _, b := range []int{1, 8, 64} {
			name := fmt.Sprintf("W%d_B%d", w, b)
			if w == 0 { // WithBoxWorkers(0) gives no width
				name = fmt.Sprintf("Wunset_B%d", b)
			}
			t.Run(name, func(t *testing.T) {
				bothPlans(t, func(t *testing.T, m execMode) {
					out, _, err := m.RunAll(context.Background(), mkNet(), inputs(),
						WithBoxWorkers(w), WithStreamBatch(b))
					if err != nil {
						t.Fatal(err)
					}
					got := renderStream(out)
					if w == 1 && b == 1 && m == unfused {
						want = got
						return
					}
					if got != want {
						t.Fatalf("W=%d B=%d %v output diverges from the un-fused (1,1) reference:\n--- want ---\n%s--- got ---\n%s",
							w, b, m, want, got)
					}
				})
			})
		}
	}
}

// A|B: deterministic parallel composition of two jittery boxes.
func TestDetPropParallelPipeline(t *testing.T) {
	const n = 60
	mkNet := func() Node {
		return ParallelDet(
			latencyBox("pa", "a", 800*time.Microsecond),
			latencyBox("pb", "b", 300*time.Microsecond),
		)
	}
	inputs := func() []*Record {
		return seqInputs(n, func(i int, r *Record) {
			if i%2 == 0 {
				r.SetField("a", 1)
			} else {
				r.SetField("b", 1)
			}
		})
	}
	runDetProp(t, mkNet, inputs)
}

// A*(p): deterministic serial replication around a jittery multi-exit box.
func TestDetPropStarPipeline(t *testing.T) {
	const n = 40
	mkNet := func() Node {
		var mu sync.Mutex
		rng := rand.New(rand.NewSource(4242))
		step := NewBox("sp", MustParseSignature("(<n>,<seq>) -> (<n>,<seq>) | (<seq>,<done>)"),
			func(args []any, out *Emitter) error {
				mu.Lock()
				d := time.Duration(rng.Int63n(int64(500 * time.Microsecond)))
				mu.Unlock()
				time.Sleep(d)
				v, seq := args[0].(int), args[1].(int)
				if v <= 0 {
					return out.Out(2, seq, 1)
				}
				return out.Out(1, v-1, seq)
			})
		return StarDet(step, MustParsePattern("{<done>}"))
	}
	inputs := func() []*Record {
		return seqInputs(n, func(i int, r *Record) { r.SetTag("n", i%6) })
	}
	runDetProp(t, mkNet, inputs)
}

// Nested: a deterministic split of a concurrent box, fed from a
// deterministic parallel — the full marker-barrier gauntlet.
func TestDetPropNestedCombinators(t *testing.T) {
	const n = 36
	mkNet := func() Node {
		first := ParallelDet(
			latencyBox("na", "a", 400*time.Microsecond),
			latencyBox("nb", "b", 150*time.Microsecond),
		)
		addK := MustFilter("{<seq>} -> {<seq>, <k>=<seq>%3}")
		second := SplitDet(latencyBox2("ns", 600*time.Microsecond), "k")
		return Serial(first, addK, second)
	}
	inputs := func() []*Record {
		return seqInputs(n, func(i int, r *Record) {
			if i%2 == 0 {
				r.SetField("a", 1)
			} else {
				r.SetField("b", 1)
			}
		})
	}
	runDetProp(t, mkNet, inputs)
}

// Det over nondet over split: the outer deterministic split's markers are
// foreign to everything inside it — they are broadcast through the inner
// nondeterministic parallel and on through the split replicas of one of its
// branches, and come back up as the last item of whatever frame each branch
// writer had pending, records ahead of them in the same batch at B > 1.
// The inner combinators must stay order-transparent at every B.
func TestDetPropDetOverNondetOverSplit(t *testing.T) {
	const n = 48
	mkNet := func() Node {
		inner := Parallel(
			Split(latencyBox("da", "a", 400*time.Microsecond), "k"),
			latencyBox("db", "b", 150*time.Microsecond),
		)
		return SplitDet(inner, "g")
	}
	inputs := func() []*Record {
		return seqInputs(n, func(i int, r *Record) {
			if i%3 == 0 {
				r.SetField("b", 1)
			} else {
				r.SetField("a", 1)
			}
			r.SetTag("k", i%4).SetTag("g", i%2)
		})
	}
	runDetProp(t, mkNet, inputs)
}

// latencyBox2 is latencyBox over a bare (<seq>) signature.
func latencyBox2(name string, maxDelay time.Duration) Node {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(int64(len(name)) * 104729))
	return NewBox(name, MustParseSignature("(<seq>) -> (<seq>,<hop_"+name+">)"),
		func(args []any, out *Emitter) error {
			mu.Lock()
			d := time.Duration(rng.Int63n(int64(maxDelay)))
			mu.Unlock()
			time.Sleep(d)
			return out.Out(1, args[0].(int), 1)
		})
}

// Regression for the shared-node-state race: node trees are blueprints, so
// the same network value must serve any number of concurrent sessions
// without touching shared mutable state (the old parallelNode rotation
// counter lived on the node and raced here under -race).
func TestSharedNetworkConcurrentSessions(t *testing.T) {
	bothPlans(t, testSharedNetworkConcurrentSessions)
}

func testSharedNetworkConcurrentSessions(t *testing.T, m execMode) {
	// Two branches with identical input types force the tie-breaking
	// rotation path on every record.
	tieA := NewBox("tieA", MustParseSignature("(<seq>) -> (<seq>)"),
		func(args []any, out *Emitter) error { return out.Out(1, args[0].(int)) })
	tieB := NewBox("tieB", MustParseSignature("(<seq>) -> (<seq>)"),
		func(args []any, out *Emitter) error { return out.Out(1, args[0].(int)) })
	shared := Serial(Parallel(tieA, tieB), NamedStar("tail", decBox(), MustParsePattern("{<done>}")))

	const sessions = 8
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		go func(s int) {
			inputs := seqInputs(25, func(i int, r *Record) { r.SetTag("n", (s+i)%3) })
			out, _, err := m.RunAll(context.Background(), shared, inputs, WithBoxWorkers(4))
			if err == nil && len(out) != 25 {
				err = fmt.Errorf("session %d: got %d records", s, len(out))
			}
			errs <- err
		}(s)
	}
	for s := 0; s < sessions; s++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
