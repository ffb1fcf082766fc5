package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/core/randnet"
)

// TestRandomNets runs every seed's random net (package randnet) through the
// harness — nine (W, B) cells, one-shot and started — against the reference
// evaluator (eval_test.go), under a star depth cap and, on every third seed, a
// split width cap that folds.  Two thirds of the seeds must compare their
// whole output.  The verifier's half, on the same nets, is internal/analysis's
// TestPropCertifiedPlansDontHang and TestPropStarvingSyncFlagged.
func TestRandomNets(t *testing.T) {
	seeds := randnet.Seeds()
	exact := 0
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			mkNet := func() core.Node { return randnet.Net(seed) }
			if core.AgreeWithReference(t, mkNet, func() []*core.Record { return randnet.Inputs(seed) }, "", randnet.Options(seed)...) {
				exact++
			}
			if t.Failed() {
				t.Logf("seed %d failed: add it to randnet.FixtureSeeds", seed)
			}
		})
	}
	t.Logf("%d of %d seeds compared whole", exact, len(seeds))
	if exact*3 < len(seeds)*2 {
		t.Errorf("only %d of %d seeds compared their whole output", exact, len(seeds))
	}
}
