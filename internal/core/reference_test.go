package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sudoku"
	"repro/internal/workloads"
)

// TestReferenceAgreement holds the runtime to the reference evaluator
// (eval_test.go) on the workload nets and the paper's three sudoku networks,
// at box widths unset, 1 and 4 by batch sizes 1, 8 and 64.
func TestReferenceAgreement(t *testing.T) {
	records := func(n int, mk func(i int) *core.Record) func() []*core.Record {
		return func() []*core.Record {
			out := make([]*core.Record, n)
			for i := range out {
				out[i] = mk(i)
			}
			return out
		}
	}
	// Every join cell of these two nets receives exactly one record per
	// pattern — one up and one left value per grid cell, one left and one
	// right half per merge — so what it emits does not depend on their order.
	const oneEach = "each join cell receives one record per pattern"
	t.Run("webpipe", func(t *testing.T) {
		core.AgreeWithReference(t, workloads.WebPipeNet, records(24, workloads.WebPipeRequest), "")
	})
	t.Run("wavefront", func(t *testing.T) {
		core.AgreeWithReference(t, func() core.Node { return workloads.WavefrontNet(5, 35) },
			records(1, func(int) *core.Record { return workloads.WavefrontSeed() }), oneEach)
	})
	t.Run("divconq", func(t *testing.T) {
		const jobs, n, leaf = 3, 16, 4
		core.AgreeWithReference(t, func() core.Node { return workloads.DivConqNet(n, leaf) },
			func() []*core.Record { return workloads.DivConqJobs(jobs, n, 11) }, oneEach,
			core.WithMaxSplitWidth(workloads.DivConqSplitWidth(jobs, n, leaf)))
	})
	puzzle := func() []*core.Record {
		return []*core.Record{core.NewRecord().SetField("board", sudoku.Medium())}
	}
	for name, mk := range map[string]func(sudoku.NetConfig) core.Node{
		"fig1": sudoku.Fig1Net, "fig2": sudoku.Fig2Net, "fig3": sudoku.Fig3Net,
	} {
		t.Run(name, func(t *testing.T) {
			core.AgreeWithReference(t, func() core.Node { return mk(sudoku.NetConfig{}) }, puzzle, "")
		})
	}
}
