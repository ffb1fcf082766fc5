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
// latencies the invocations exhibit.  Every (W, B) combination must
// reproduce the sequential evaluator's sequence (eval_test.go) exactly — in
// particular, sort markers must stay flush barriers at any B.

// renderStream flattens a record sequence into one comparable string.
func renderStream(recs []*Record) string {
	var sb strings.Builder
	for _, r := range recs {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// latencyBox forwards <seq>, the last of its inputs in, tagged with a
// branch witness after a truly random sleep, so invocation completion order
// is unrelated to input order.
func latencyBox(name, in string, maxDelay time.Duration) Node {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(int64(len(name)) * 7919))
	return NewBox(name, MustParseSignature("("+in+") -> (<seq>,<via_"+name+">)"),
		func(args []any, out *Emitter) error {
			mu.Lock()
			d := time.Duration(rng.Int63n(int64(maxDelay)))
			mu.Unlock()
			time.Sleep(d)
			return out.Out(1, args[len(args)-1].(int), 1)
		})
}

// abInputs is n <seq> records, field a on the even ones and b on the odd.
func abInputs(n int) func() []*Record {
	return func() []*Record {
		return seqInputs(n, func(i int, r *Record) { r.SetField([]string{"a", "b"}[i%2], i) })
	}
}

// detMatrix holds mkNet() over inputs() to the evaluator's sequence at box
// widths 1, 4, 16 and unset by batch sizes 1, 8 and 64 in both cells
// (agreeMatrix).  A fused net (fuse_test.go) must hold fused segments, and its
// matrix names its cells flat.
func detMatrix(t *testing.T, fused bool, mkNet func() Node, inputs func() []*Record) {
	t.Helper()
	atLeastProcs(t, 2) // so that the unset width can hand over mid-stream
	if fused && len(compileNet(mkNet()).FusionGroups()) == 0 {
		t.Fatal("determinism net should contain fused segments")
	}
	want := evaluate(compileNet(mkNet()), inputs())
	// Every net of these fixes its output order, a non-deterministic
	// combinator inside a deterministic one that emits one record per input
	// included.
	want.ordered = true
	agreeMatrix(t, []int{1, 4, 16, 0}, fused, want, mkNet, inputs)
}

// A|B: deterministic parallel composition of two jittery boxes.
func TestDetPropParallelPipeline(t *testing.T) {
	const n = 60
	mkNet := func() Node {
		return ParallelDet(
			latencyBox("pa", "a,<seq>", 800*time.Microsecond),
			latencyBox("pb", "b,<seq>", 300*time.Microsecond),
		)
	}
	detMatrix(t, false, mkNet, abInputs(n))
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
	detMatrix(t, false, mkNet, inputs)
}

// Nested: a deterministic split of a concurrent box, fed from a
// deterministic parallel — the full marker-barrier gauntlet.
func TestDetPropNestedCombinators(t *testing.T) {
	const n = 36
	mkNet := func() Node {
		first := ParallelDet(
			latencyBox("na", "a,<seq>", 400*time.Microsecond),
			latencyBox("nb", "b,<seq>", 150*time.Microsecond),
		)
		addK := MustFilter("{<seq>} -> {<seq>, <k>=<seq>%3}")
		second := SplitDet(latencyBox("ns", "<seq>", 600*time.Microsecond), "k")
		return Serial(first, addK, second)
	}
	detMatrix(t, false, mkNet, abInputs(n))
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
			Split(latencyBox("da", "a,<seq>", 400*time.Microsecond), "k"),
			latencyBox("db", "b,<seq>", 150*time.Microsecond),
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
	detMatrix(t, false, mkNet, inputs)
}

// Regression for the shared-node-state race: node trees are blueprints, so
// the same network value must serve any number of concurrent sessions
// without touching shared mutable state (the old parallelNode rotation
// counter lived on the node and raced here under -race).
func TestSharedNetworkConcurrentSessions(t *testing.T) {
	eachCell(t, testSharedNetworkConcurrentSessions)
}

func testSharedNetworkConcurrentSessions(t *testing.T, m cell) {
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
