package analysis_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
)

// This file is the property-test half of the verifier's soundness story:
// the certificate "deadlock-free with finite bound" must mean something at
// runtime.  A generator builds random small plans (≤6 boxes) over an
// ordered tag alphabet — every box consumes level i and produces level
// i+1, so any generated plan terminates by construction — and every plan
// the verifier certifies deadlock-free is soak-run at the harshest
// configuration (stream buffer 1, batch B=1, box workers W=1) under a
// watchdog.  A certified plan that hangs is a verifier unsoundness; its
// seed goes into regressionSeeds below so the failure is replayed forever.

// regressionSeeds pins generator seeds that once produced a hang or a
// wrong verdict.  Add the seed the failure message names; the sweep runs
// these before the random range.
var regressionSeeds = []int64{}

// lvlTag names the ordered tag alphabet: level 0 is <a>, level 1 <b>, ...
func lvlTag(i int) string {
	if i > 15 {
		panic("prop: level alphabet exhausted")
	}
	return string(rune('a' + i))
}

// planGen grows a random combinator tree.  Leaves are pass-through boxes
// from one level tag to the next; serial, parallel, star and split
// combinators stack on top.  Every record also carries the index tag <s>,
// which drives indexed splits.
type planGen struct {
	r     *rand.Rand
	boxes int // leaf budget
	n     int // name counter
}

func (g *planGen) box(level int) (core.Node, int) {
	g.boxes--
	g.n++
	sig, err := core.ParseSignature(fmt.Sprintf("(<%s>,<s>) -> (<%s>,<s>)",
		lvlTag(level), lvlTag(level+1)))
	if err != nil {
		panic(err)
	}
	name := fmt.Sprintf("step%d", g.n)
	return core.NewBox(name, sig, func(args []any, out *core.Emitter) error {
		return out.Out(1, args[0], args[1])
	}), level + 1
}

// chain builds the straight box pipeline from level `from` to level `to`,
// used to land a parallel branch on the same output level as its sibling.
func (g *planGen) chain(from, to int) core.Node {
	var nodes []core.Node
	for l := from; l < to; l++ {
		n, _ := g.box(l)
		nodes = append(nodes, n)
	}
	if len(nodes) == 1 {
		return nodes[0]
	}
	return core.Serial(nodes...)
}

func (g *planGen) gen(level, depth int) (core.Node, int) {
	if depth <= 0 || g.boxes <= 1 || g.r.Intn(3) == 0 {
		return g.box(level)
	}
	switch g.r.Intn(4) {
	case 0: // serial composition
		a, mid := g.gen(level, depth-1)
		b, out := g.gen(mid, depth-1)
		return core.Serial(a, b), out
	case 1: // parallel: both branches land on the same level
		a, out := g.gen(level, depth-1)
		return core.Parallel(a, g.chain(level, out)), out
	case 2: // star: one pass through the operand reaches the exit level
		inner, out := g.box(level)
		exit := core.Pattern{Variant: core.NewVariant(core.Tag(lvlTag(out)), core.Tag("s"))}
		return core.Star(inner, exit), out
	default: // indexed split over the sequence tag
		inner, out := g.box(level)
		return core.Split(inner, "s"), out
	}
}

// genPlan builds the random node for one seed and compiles it.
func genPlan(t *testing.T, seed int64) (*core.Plan, core.Node) {
	t.Helper()
	g := &planGen{r: rand.New(rand.NewSource(seed)), boxes: 6}
	node, _ := g.gen(0, 3)
	plan, err := core.Compile(node)
	if err != nil {
		t.Fatalf("seed %d: compile: %v", seed, err)
	}
	if n := len(plan.TypeErrors()); n != 0 {
		t.Fatalf("seed %d: generator produced %d type errors: %v", seed, n, plan.TypeErrors())
	}
	return plan, node
}

// soak runs a certified plan at buffer 1, B=1, W=1 — the configuration
// with the least slack, where any wait-for cycle the verifier missed will
// actually block — and fails hard if it does not drain within the
// watchdog.
func soak(t *testing.T, seed int64, plan *core.Plan) {
	t.Helper()
	const nRecords = 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := plan.Start(ctx,
		core.WithBuffer(1), core.WithStreamBatch(1), core.WithBoxWorkers(1))
	done := make(chan int, 1)
	go func() {
		n := 0
		for range h.Out() {
			n++
		}
		done <- n
	}()
	go func() {
		for i := 0; i < nRecords; i++ {
			r := core.NewRecord().SetTag(lvlTag(0), 0).SetTag("s", i)
			if err := h.Send(r); err != nil {
				return
			}
		}
		h.Close()
	}()
	select {
	case n := <-done:
		if n != nRecords {
			t.Errorf("seed %d: certified plan dropped records: %d in, %d out", seed, nRecords, n)
		}
	case <-time.After(5 * time.Second):
		h.Cancel()
		t.Fatalf("seed %d: plan certified deadlock-free hung at buffer=1 B=1 W=1 — verifier unsoundness; add the seed to regressionSeeds", seed)
	}
}

// TestPropCertifiedPlansDontHang is the property sweep: every seed whose
// plan the verifier certifies deadlock-free must drain a full soak run.
// Seeds the verifier declines to certify are skipped (the generator only
// builds terminating topologies, so near-all seeds must certify — a
// collapse in the certified fraction is a verifier regression too).
func TestPropCertifiedPlansDontHang(t *testing.T) {
	seeds := append(append([]int64{}, regressionSeeds...), func() []int64 {
		s := make([]int64, 40)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}()...)
	certified := 0
	for _, seed := range seeds {
		plan, _ := genPlan(t, seed)
		rep := analysis.Analyze(plan)
		if !rep.DeadlockFree() {
			t.Logf("seed %d: not certified: %v", seed, rep.Findings)
			continue
		}
		if rep.Bound == nil || !rep.Bound.Finite {
			t.Errorf("seed %d: certified but no finite bound: %v", seed, rep.Bound)
		}
		certified++
		soak(t, seed, plan)
	}
	if certified*2 < len(seeds) {
		t.Errorf("only %d/%d generated plans certified deadlock-free — generator or verifier drifted", certified, len(seeds))
	}
}

// TestPropStarvingSyncFlagged is the negative property: grafting a
// synchrocell with an unsatisfiable pattern onto any generated plan must
// revoke the deadlock-free certificate — the verifier may not certify a
// plan whose join waits for a variant nothing can produce.
func TestPropStarvingSyncFlagged(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		g := &planGen{r: rand.New(rand.NewSource(seed)), boxes: 6}
		node, out := g.gen(0, 3)
		starving := core.Serial(node, core.Sync(
			core.Pattern{Variant: core.NewVariant(core.Tag(lvlTag(out)), core.Tag("s"))},
			core.Pattern{Variant: core.NewVariant(core.Tag("ghost"), core.Tag("s"))},
		))
		plan, err := core.Compile(starving)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		rep := analysis.Analyze(plan)
		if rep.DeadlockFree() {
			t.Errorf("seed %d: starving sync certified deadlock-free — verifier unsoundness", seed)
		}
	}
}
