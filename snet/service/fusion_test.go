package service

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/snet"
)

// Fusion at the service layer: a shared engine unfolds one session replica
// per client, and with the fusion pass on, each replica of a lightweight
// pipeline is a single goroutine instead of one per stage.

// deepFusibleNet is a depth-stage chain of Observe taps — entirely fusible,
// the service-side analogue of the E13 deep-pipeline shape.
func deepFusibleNet(depth int) Builder { return barrierChain(depth, 0) }

// barrierChain is deepFusibleNet cut into barriers+1 equal fusible runs by
// identity boxes of the run's width, which never fuse.
func barrierChain(depth, barriers int) Builder {
	return func(Options) (snet.Node, error) {
		var stages []snet.Node
		for run := 0; run <= barriers; run++ {
			if run > 0 {
				stages = append(stages, snet.NewBox(fmt.Sprintf("dbar%d", run),
					snet.MustParseSignature("(<n>) -> (<n>)"),
					func(args []any, out *snet.Emitter) error { return out.Out(1, args[0]) }))
			}
			for i := 0; i < depth/(barriers+1); i++ {
				stages = append(stages, snet.Observe(fmt.Sprintf("dtap%d_%d", run, i), nil))
			}
		}
		return snet.Serial(stages...), nil
	}
}

// TestSharedFusedOpenWaveStaysFlat: opening S=1024 shared sessions on a
// warm fused deep pipeline spawns no per-stage goroutines — Open stays a
// map insert whatever the stage count behind the engine.
func TestSharedFusedOpenWaveStaysFlat(t *testing.T) {
	svc := New()
	svc.Register("deep", "", sharedOpts(Options{BufferSize: 2, MaxSessions: -1}),
		deepFusibleNet(32), nil)
	defer svc.Shutdown()
	warm, err := svc.Open("deep") // pays the engine instantiation
	if err != nil {
		t.Fatal(err)
	}
	warm.Release()
	base := goroutineCount()
	const wave = 1024
	sessions := make([]*Session, wave)
	for i := range sessions {
		if sessions[i], err = svc.Open("deep"); err != nil {
			t.Fatal(err)
		}
	}
	if grew := goroutineCount() - base; grew > 4 {
		t.Fatalf("opening %d warm sessions on a fused pipeline grew goroutines by %d", wave, grew)
	}
	for _, sess := range sessions {
		sess.Release()
	}
}

// TestSharedFusedSessionGoroutineBudget drives live session replicas
// through 32 fusible stages cut into segments by fusion barriers (boxes of
// the run's width): a session costs goroutines per barrier, not per stage —
// the shared engine's capacity story at scale rests on this.  The budget is
// absolute and is what a replica is made of: 1 for its first segment (its
// output goes straight into the session split's merger, no relay), 2 per
// barrier (the box, inline, and the segment behind it) — against the 32 and
// more a stage-per-goroutine replica needs.
func TestSharedFusedSessionGoroutineBudget(t *testing.T) {
	const depth = 32
	const live = 8
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, barriers := range []int{0, 3} {
		svc := New()
		svc.Register("deep", "", sharedOpts(Options{BufferSize: 2, MaxSessions: -1}),
			barrierChain(depth, barriers), nil)
		warm, err := svc.Open("deep")
		if err != nil {
			t.Fatal(err)
		}
		warm.Release()
		base := goroutineCount()
		sessions := make([]*Session, live)
		for i := range sessions {
			if sessions[i], err = svc.Open("deep"); err != nil {
				t.Fatal(err)
			}
			// The replica unfolds on the first record; pull it back out so
			// the pipeline is demonstrably live, then keep the session open.
			if err = sessions[i].Send(ctx, recN(i)); err != nil {
				t.Fatal(err)
			}
			if _, _, err = sessions[i].Recv(ctx); err != nil {
				t.Fatal(err)
			}
		}
		grew := goroutineCount() - base
		for _, sess := range sessions {
			sess.Release()
		}
		svc.Shutdown()
		if budget := live * (1 + 2*barriers); grew > budget {
			t.Errorf("barriers=%d: %d live sessions grew %d goroutines, budget %d (1 + 2 per barrier each)",
				barriers, live, grew, budget)
		}
	}
}
