package analysis_test

import (
	"os"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/sudoku"
)

// loadNet parses a .snet file and returns its single net's built node.
func loadNet(t *testing.T, path string) core.Node {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	b, err := lang.BuildNet(prog, prog.Nets[0].Name, stubRegistry(prog))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return b.Node
}

// verifierPrograms is every .snet program the fusion-invariance and
// boundedness tests sweep: the shipped workloads plus the seeded defects.
var verifierPrograms = []struct {
	name, path string
	clean      bool
}{
	{"wavefront", "../../examples/wavefront/wavefront.snet", true},
	{"mergesort", "../../examples/divconq/mergesort.snet", true},
	{"webpipe", "../../examples/webpipe/webpipe.snet", true},
	{"deadlock_sync", "testdata/deadlock_sync.snet", false},
	{"deadlock_cycle", "testdata/deadlock_cycle.snet", false},
	{"diverging_star", "testdata/diverging_star.snet", false},
	{"unbounded_split", "testdata/unbounded_split.snet", false},
	{"overbudget", "testdata/overbudget.snet", true},
}

// TestVerdictsFusionInvariant proves the verifier's verdicts cannot depend
// on whether pipeline fusion ran: for every program and every point of the
// capacity matrix, compiling with fusion on and off yields byte-identical
// rendered reports and identical bounds.  This holds by construction — the
// analysis reads Plan.Graph(), the one tree either plan runs, and a fused
// segment holds no more than its stages hold on their own, without the
// streams the analysis prices between them — but the sweep pins it against
// regressions (internal/workloads' TestBurstBoxInFlightWithinBound watches a
// run).
func TestVerdictsFusionInvariant(t *testing.T) {
	for _, prog := range verifierPrograms {
		node := loadNet(t, prog.path)
		for _, w := range []int{1, 4, 16} {
			for _, batch := range []int{1, 8, 64} {
				caps := analysis.DefaultCaps()
				caps.BoxWorkers = w
				caps.StreamBatch = batch
				var rendered [2]string
				var bounds [2]*analysis.Bound
				for i, fuse := range []bool{false, true} {
					plan, err := core.Compile(node, core.WithFusion(fuse))
					if err != nil {
						t.Fatalf("%s: compile(fusion=%v): %v", prog.name, fuse, err)
					}
					rep := analysis.AnalyzeWithCaps(plan, caps)
					rendered[i] = render(rep)
					bounds[i] = rep.Bound
				}
				if rendered[0] != rendered[1] {
					t.Errorf("%s (W=%d B=%d): verdicts differ with fusion on vs off\n--- off ---\n%s--- on ---\n%s",
						prog.name, w, batch, rendered[0], rendered[1])
				}
				if bounds[0].Total != bounds[1].Total || bounds[0].Fixed != bounds[1].Fixed || bounds[0].Finite != bounds[1].Finite {
					t.Errorf("%s (W=%d B=%d): bounds differ: %s vs %s",
						prog.name, w, batch, bounds[0], bounds[1])
				}
			}
		}
	}
}

// TestWorkloadBoundsFinite proves every shipped workload program
// deadlock-free with a finite memory high-water bound under default caps.
func TestWorkloadBoundsFinite(t *testing.T) {
	for _, prog := range verifierPrograms {
		if !prog.clean {
			continue
		}
		rep := analyzeFile(t, prog.path)
		if !rep.DeadlockFree() {
			t.Errorf("%s: want deadlock-free, got:\n%s", prog.name, render(rep))
		}
		if rep.Bound == nil || !rep.Bound.Finite || rep.Bound.Total <= 0 {
			t.Errorf("%s: want finite positive bound, got %v", prog.name, rep.Bound)
		}
		if rep.Edges <= 0 {
			t.Errorf("%s: occupancy pass modeled no edges", prog.name)
		}
	}
}

// TestSudokuNetsVerified proves the sudoku case-study networks (built
// straight from the Go combinator API, no .snet source) deadlock-free with
// finite bounds — the paper's figures must pass their own verifier.
func TestSudokuNetsVerified(t *testing.T) {
	for name, node := range map[string]core.Node{
		"fig1": sudoku.Fig1Net(sudoku.NetConfig{}),
		"fig2": sudoku.Fig2Net(sudoku.NetConfig{}),
		"fig3": sudoku.Fig3Net(sudoku.NetConfig{}),
	} {
		plan, err := core.Compile(node)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := analysis.Analyze(plan)
		if !rep.DeadlockFree() {
			t.Errorf("%s: want deadlock-free, got:\n%s", name, render(rep))
		}
		if rep.Bound == nil || !rep.Bound.Finite {
			t.Errorf("%s: want finite bound, got %v", name, rep.Bound)
		}
	}
}

// TestReportDeadlockFree pins the verdict classification: deadlock-class
// codes revoke the verdict, structural and budget findings do not.
func TestReportDeadlockFree(t *testing.T) {
	budgeted := analysis.DefaultCaps()
	budgeted.MemoryBudget = 1
	rep := analyzeFileCaps(t, "testdata/overbudget.snet", budgeted)
	if !rep.DeadlockFree() {
		t.Errorf("capacity-overflow must not revoke deadlock freedom:\n%s", render(rep))
	}
	found := false
	for _, f := range rep.Findings {
		if f.Code == analysis.CodeCapacityOverflow {
			found = true
		}
	}
	if !found {
		t.Errorf("budget of 1 record must overflow, got:\n%s", render(rep))
	}
	for _, name := range []string{"deadlock_sync", "deadlock_cycle", "diverging_star"} {
		rep := analyzeFile(t, "testdata/"+name+".snet")
		if rep.DeadlockFree() {
			t.Errorf("%s: want deadlock-positive, got clean report", name)
		}
	}
}

// TestAutoWidthBoxBoundedAtCap pins what Caps.BoxWorkers promises for a box
// nobody gave a width: the engine runs it inline, holding one record, or
// grown to at most the cap, holding BoxEngineHold(cap) — so it is bounded
// exactly like a box pinned at the cap, and a box pinned sequential sits
// below it by the reorder stage's share.
func TestAutoWidthBoxBoundedAtCap(t *testing.T) {
	pipeline := func(workers int) core.Node {
		box := func(name string) core.Node {
			return core.NewBoxConcurrent(name, core.MustParseSignature("(<n>) -> (<n>)"),
				func(args []any, out *core.Emitter) error { return out.Out(1, args[0].(int)) }, workers)
		}
		return core.Serial(box("first"), box("second"))
	}
	bound := func(workers int, caps analysis.Caps) int64 {
		rep := analysis.AnalyzeWithCaps(core.MustCompile(pipeline(workers), core.WithFusion(false)), caps)
		if rep.Bound == nil || !rep.Bound.Finite {
			t.Fatalf("workers=%d: want a finite bound, got %v", workers, rep.Bound)
		}
		return rep.Bound.Total
	}
	for _, w := range []int{1, 4, 16} {
		caps := analysis.DefaultCaps()
		caps.BoxWorkers = w
		auto, pinned, inline := bound(0, caps), bound(w, caps), bound(1, caps)
		if auto != pinned {
			t.Errorf("cap %d: auto-width bound %d, pinned-at-cap bound %d", w, auto, pinned)
		}
		if want := auto - 2*(core.BoxEngineHold(w)-core.BoxEngineHold(1)); inline != want {
			t.Errorf("cap %d: pinned-sequential bound %d, want %d", w, inline, want)
		}
	}
}
