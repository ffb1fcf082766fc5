package core

import (
	"context"
	"fmt"
	"testing"
)

// Buffer-capacity sweep: every combinator nest must work with unbuffered
// channels (capacity 0 exposes ordering deadlocks that buffering hides).
func TestBufferSizeSweep(t *testing.T) {
	for _, buf := range []int{0, 1, 4, 64} {
		t.Run(fmt.Sprintf("buf%d", buf), func(t *testing.T) {
			bothPlans(t, func(t *testing.T, m execMode) {
				fork := NewBox("fork", MustParseSignature("(<n>) -> (<n>,<k>) | (<n>,<done>)"),
					func(args []any, out *Emitter) error {
						n := args[0].(int)
						if n <= 0 {
							return out.Out(2, 0, 1)
						}
						if err := out.Out(1, n-1, n%3); err != nil {
							return err
						}
						return out.Out(1, n-1, (n+1)%3)
					})
				net := NamedStar("loop", NamedSplit("fan", fork, "k"), MustParsePattern("{<done>}"))
				inputs := []*Record{recN(4).SetTag("k", 0), recN(3).SetTag("k", 1)}
				out, _, err := m.RunAll(context.Background(), net, inputs, WithBuffer(buf))
				if err != nil {
					t.Fatal(err)
				}
				if len(out) != 16+8 {
					t.Fatalf("got %d records, want 24", len(out))
				}
			})
		})
	}
}

// Deterministic combinators under unbuffered channels.
func TestBufferSizeSweepDeterministic(t *testing.T) {
	for _, buf := range []int{0, 1, 16} {
		t.Run(fmt.Sprintf("buf%d", buf), func(t *testing.T) {
			bothPlans(t, func(t *testing.T, m execMode) {
				net := SplitDet(StarDet(decBox(), MustParsePattern("{<done>}")), "k")
				inputs := seqInputs(12, func(i int, r *Record) {
					r.SetTag("k", i%3).SetTag("n", i%4)
				})
				out, _, err := m.RunAll(context.Background(), net, inputs, WithBuffer(buf))
				if err != nil {
					t.Fatal(err)
				}
				assertOrdered(t, collectSeqs(t, out), 12)
			})
		})
	}
}

// A record flood through a deep pipeline of replicated boxes — the shape of
// the sudoku networks at scale.
func TestStressDeepNesting(t *testing.T) { bothPlans(t, testStressDeepNesting) }

func testStressDeepNesting(t *testing.T, m execMode) {
	if testing.Short() {
		t.Skip("stress test")
	}
	hop := NewBox("hop", MustParseSignature("(<n>,<hops>) -> (<n>,<hops>) | (<n>,<done>)"),
		func(args []any, out *Emitter) error {
			n, hops := args[0].(int), args[1].(int)
			if hops <= 0 {
				return out.Out(2, n, 1)
			}
			return out.Out(1, n, hops-1)
		})
	net := NamedStar("deep", NamedSplit("wide", hop, "k"), MustParsePattern("{<done>}"))
	const n = 500
	inputs := make([]*Record, n)
	for i := range inputs {
		inputs[i] = NewRecord().SetTag("n", i).SetTag("hops", 20+i%10).SetTag("k", i%8)
	}
	out, stats, err := m.RunAll(context.Background(), net, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("got %d records", len(out))
	}
	seen := map[int]bool{}
	for _, r := range out {
		v, _ := r.Tag("n")
		if seen[v] {
			t.Fatalf("duplicate record %d", v)
		}
		seen[v] = true
	}
	if stats.Counter("star.deep.replicas") < 20 {
		t.Fatalf("chain too short: %d", stats.Counter("star.deep.replicas"))
	}
}

// Concurrent network instances sharing the same Node blueprint must not
// interfere (Nodes are blueprints; all state is per-run).
func TestSharedBlueprintConcurrentRuns(t *testing.T) { bothPlans(t, testSharedBlueprintConcurrentRuns) }

func testSharedBlueprintConcurrentRuns(t *testing.T, m execMode) {
	net := Serial(incBox("shared", 1), NamedStar("loop", decBox(), MustParsePattern("{<done>}")))
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			out, _, err := m.RunAll(context.Background(), net,
				[]*Record{recN(3 + g%3), recN(2)})
			if err == nil && len(out) != 2 {
				err = fmt.Errorf("got %d records", len(out))
			}
			errs <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// Repeated starts of the same handle pattern: Start/Send/Cancel in a tight
// loop must stay leak- and panic-free.
func TestStartCancelChurn(t *testing.T) { bothPlans(t, testStartCancelChurn) }

func testStartCancelChurn(t *testing.T, m execMode) {
	net := NamedSplit("churn", incBox("c", 1), "k")
	for i := 0; i < 50; i++ {
		h := m.Start(context.Background(), net)
		_ = h.Send(NewRecord().SetTag("n", i).SetTag("k", i%2))
		if i%2 == 0 {
			h.Close()
			for range h.Out() {
			}
		} else {
			h.Cancel()
		}
		h.Wait()
	}
}

// Empty input: the network must open and drain cleanly.
func TestEmptyRun(t *testing.T) { bothPlans(t, testEmptyRun) }

func testEmptyRun(t *testing.T, m execMode) {
	for _, net := range []Node{
		incBox("e", 1),
		Parallel(incBox("a", 1), incBox("b", 2)),
		NamedStar("s", decBox(), MustParsePattern("{<done>}")),
		SplitDet(incBox("d", 1), "k"),
		Sync(MustParsePattern("{a}"), MustParsePattern("{b}")),
	} {
		out, _, err := m.RunAll(context.Background(), net, nil)
		if err != nil || len(out) != 0 {
			t.Fatalf("%s: out=%d err=%v", net, len(out), err)
		}
	}
}
