package core_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// TestStarStagesReuseWorkers: a star stage hands its goroutine back to the run
// as soon as its input ends, and the next stage to unfold takes it.  A 64×64
// wavefront unfolds 127 stages, each of which spawns the next, so read from
// inside the last cell call the goroutines stay within 16 of the base; were a
// stage to wait for the stages behind it, all 127 would still be there.  The
// cell box is the workload's with the values left out: what the net does with
// its records, not what they carry, decides which stage runs where.
func TestStarStagesReuseWorkers(t *testing.T) {
	const n = 64
	base, during := runtime.NumGoroutine(), 0 // goroutines of earlier tests still leaving only raise it
	b := workloads.WavefrontBoxes(n, 1)
	cell := core.NewBox("cell", core.MustParseSignature("(up, left, <row>, <col>, <cell>) -> "+
		"(left, <row>, <col>, <cell>) | (up, <row>, <col>, <cell>) | (result, <done>)"),
		func(args []any, out *core.Emitter) error {
			i, j := args[2].(int), args[3].(int)
			if i == n-1 && j == n-1 {
				during = runtime.NumGoroutine()
				return out.Out(3, 0, 1)
			}
			if j+1 < n {
				if err := out.Out(1, 0, i, j+1, i*n+j+1); err != nil {
					return err
				}
			}
			if i+1 < n {
				return out.Out(2, 0, i+1, j, (i+1)*n+j)
			}
			return nil
		})
	interior := core.NamedSplit("wave_cells", core.Serial(core.NamedSync("wave_join",
		core.MustParsePattern("{up, <row>, <col>, <cell>}"),
		core.MustParsePattern("{left, <row>, <col>, <cell>}")), cell), "cell")
	net := core.NamedStar("wave_front", core.Parallel(b["corner"], b["top"], b["left"], interior),
		core.MustParsePattern("{<done>}"))
	out, stats, err := core.MustCompile(net).RunAll(context.Background(), []*core.Record{workloads.WavefrontSeed()})
	if err != nil || len(out) != 1 {
		t.Fatalf("run: %d records, %v", len(out), err)
	}
	if got := stats.Counter("star.wave_front.replicas"); got != 2*n-1 {
		t.Fatalf("%d star stages, want %d", got, 2*n-1)
	}
	t.Logf("%d over the base", during-base)
	if during-base >= 16 {
		t.Errorf("%d goroutines over the base in the last cell call, want fewer than 16", during-base)
	}
}
