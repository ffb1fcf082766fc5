package analysis_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/core/randnet"
)

// The property half of the verifier's soundness story: the certificate
// "deadlock-free with finite bound" must mean something at runtime.  The nets
// are the random nets internal/core's TestRandomNets holds to the reference
// evaluator (package randnet); a seed that fails here goes into
// randnet.FixtureSeeds, so the failure is replayed forever.

// TestPropCertifiedPlansDontHang: the verifier must certify every seed's net
// deadlock-free with a finite bound, and the net must then drain a soak run.
func TestPropCertifiedPlansDontHang(t *testing.T) {
	for _, seed := range randnet.Seeds() {
		p, rep := certify(t, seed, randnet.Net(seed))
		if !rep.DeadlockFree() || rep.Bound == nil || !rep.Bound.Finite {
			t.Errorf("seed %d: not certified deadlock-free with a finite bound: %v %v", seed, rep.Findings, rep.Bound)
			continue
		}
		soak(t, seed, p)
	}
}

// TestPropStarvingSyncFlagged is the negative property: grafting a
// synchrocell that waits for a variant nothing produces onto any seed's net
// must revoke the deadlock-free certificate.
func TestPropStarvingSyncFlagged(t *testing.T) {
	for _, seed := range randnet.Seeds() {
		starving := core.Serial(randnet.Net(seed), core.Sync(core.MustParsePattern("{<v>}"), core.MustParsePattern("{<ghost>}")))
		if _, rep := certify(t, seed, starving); rep.DeadlockFree() {
			t.Errorf("seed %d: a synchrocell waiting for <ghost> certified deadlock-free — verifier unsoundness", seed)
		}
	}
}

// certify compiles n for the closed world of randnet.Inputs and analyzes it.
// The one type error a generated net may carry is the branch a tie under |
// leaves unreachable.
func certify(t *testing.T, seed int64, n core.Node) (*core.Plan, *analysis.Report) {
	t.Helper()
	p, _ := core.Compile(n, core.WithInputType(randnet.InputType))
	for _, te := range p.TypeErrors() {
		if te.Code != core.ErrCodeUnreachable {
			t.Fatalf("seed %d: the generator built a net with a type error: %v", seed, te)
		}
	}
	return p, analysis.Analyze(p)
}

// soak runs a certified net started at buffer 1, B=1, W=1, where a wait-for
// cycle the verifier missed would block, and fails if the run does not drain
// before the watchdog cancels it.
func soak(t *testing.T, seed int64, p *core.Plan) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	opts := append(randnet.Options(seed), core.WithBuffer(1), core.WithStreamBatch(1), core.WithBoxWorkers(1))
	h := p.Start(ctx, opts...)
	go func() {
		h.SendBatch(ctx, randnet.Inputs(seed))
		h.Close()
	}()
	for range h.Out() {
	}
	h.Wait()
	if ctx.Err() != nil {
		t.Fatalf("seed %d: a net certified deadlock-free hung at buffer 1, B=1, W=1: the verifier is unsound", seed)
	}
}
