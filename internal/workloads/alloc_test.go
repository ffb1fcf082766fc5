package workloads

import (
	"context"
	"testing"

	"repro/snet"
)

// TestWavefrontAllocGates pins what one cell of a warm 64×64 wavefront costs
// in allocated objects: the run's 3 969 join replicas are held state in their
// dispatchers' hands — each split instance steps all of them through one
// execution of its body — not executions of their own, nor goroutines behind
// streams.  The limit is the figure reached (6.91) plus room for the
// collector's timing; with an execution per replica a cell allocated 9.76,
// and with every replica a synchrocell goroutine, a box goroutine and two
// streams 23.2.
func TestWavefrontAllocGates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping")
	}
	const n, seed, max = 64, 1, 7.75
	plan, err := snet.Compile(WavefrontNet(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		out, _, err := plan.RunAll(context.Background(), []*snet.Record{WavefrontSeed()})
		if err != nil || len(out) != 1 || out[0].MustField("result").(int) != WavefrontReference(n, seed) {
			t.Fatalf("wavefront run: %v, %v", out, err)
		}
	}
	run() // warm: shapes interned, route tables filled, arenas stocked
	if got := testing.AllocsPerRun(5, run) / float64(WavefrontCells(n)); got > max {
		t.Errorf("%.1f allocations a cell, want at most %v", got, max)
	} else {
		t.Logf("%.2f allocations a cell", got)
	}
}
