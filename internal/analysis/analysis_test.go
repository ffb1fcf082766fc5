package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/workloads"
)

func nopBox(args []any, out *core.Emitter) error { return nil }

func box(name, sig string) core.Node {
	return core.NewBox(name, core.MustParseSignature(sig), nopBox)
}

func pat(s string) core.Pattern { return core.MustParsePattern(s) }

// compileAndAnalyze compiles (tolerating type errors — the analysis runs
// either way) and analyzes.
func compileAndAnalyze(t *testing.T, root core.Node, opts ...core.CompileOption) *analysis.Report {
	t.Helper()
	plan, _ := core.Compile(root, opts...)
	if plan == nil {
		t.Fatal("Compile returned nil plan")
	}
	return analysis.Analyze(plan)
}

// codes collects the finding codes of a report.
func codes(r *analysis.Report) []string {
	var out []string
	for _, f := range r.Findings {
		out = append(out, f.Code)
	}
	return out
}

func wantFinding(t *testing.T, r *analysis.Report, code, pathSub, msgSub string) *analysis.Finding {
	t.Helper()
	for _, f := range r.Findings {
		if f.Code == code && strings.Contains(f.Path, pathSub) && strings.Contains(f.Msg, msgSub) {
			return f
		}
	}
	t.Fatalf("no %s finding with path~%q msg~%q; got %v", code, pathSub, msgSub, r.Findings)
	return nil
}

func TestSyncStarvation(t *testing.T) {
	// gen only ever emits the "a" half; the {b,<k>} pattern can never fill.
	net := core.Serial(
		box("gen", "(<seed>) -> (a, <k>)"),
		core.NamedSync("join", pat("{a, <k>}"), pat("{b, <k>}")),
	)
	r := compileAndAnalyze(t, net)
	f := wantFinding(t, r, analysis.CodeSyncStarvation, "/join", "{b, <k>}")
	if !f.Exact {
		t.Errorf("starvation fed by an exact flow should be exact, got %v", f)
	}
	if f.Subject() == nil {
		t.Error("finding has no subject node")
	}
}

func TestSyncNeverFires(t *testing.T) {
	// Nothing upstream matches either pattern: the cell is a dead arm, not
	// a deadlock.
	net := core.Serial(
		box("gen", "(<seed>) -> (c)"),
		core.NamedSync("join", pat("{a, <k>}"), pat("{b, <k>}")),
	)
	r := compileAndAnalyze(t, net)
	wantFinding(t, r, analysis.CodeDeadArm, "/join", "never fires")
}

func TestStarDivergence(t *testing.T) {
	// spin preserves its shape; nothing ever satisfies the exit pattern.
	net := core.NamedStar("loop", box("spin", "(<n>) -> (<n>)"), pat("{<done>}"))
	r := compileAndAnalyze(t, net,
		core.WithInputType(core.RecType{core.NewVariant(core.Tag("n"))}))
	wantFinding(t, r, analysis.CodeStarDivergence, "loop", "unfolds without bound")
}

func TestStarNeverEntered(t *testing.T) {
	// Every input variant satisfies the exit pattern immediately: the chain
	// is dead weight.
	net := core.NamedStar("skip", box("spin", "(<n>) -> (<n>)"), pat("{<n>}"))
	r := compileAndAnalyze(t, net,
		core.WithInputType(core.RecType{core.NewVariant(core.Tag("n"))}))
	wantFinding(t, r, analysis.CodeDeadArm, "skip/operand/spin", "never entered")
}

func TestDeadParallelArmBehindSync(t *testing.T) {
	// The compile pass can only warn about the dead branch (the flow is
	// approximate downstream of the synchrocell); the analysis still
	// reports it as a structured finding, marked imprecise.
	net := core.Serial(
		box("g", "(<s>) -> (a, <k>) | (b, <k>)"),
		core.NamedSync("join", pat("{a, <k>}"), pat("{b, <k>}")),
		core.Parallel(
			box("onMerged", "(a, b, <k>) -> (res)"),
			box("onNever", "(nope) -> (res)"),
		),
	)
	r := compileAndAnalyze(t, net)
	f := wantFinding(t, r, analysis.CodeDeadArm, "branch[1]/onNever", "dead")
	if f.Exact {
		t.Errorf("dead arm downstream of a sync should be imprecise, got %v", f)
	}
	if len(r.Findings) != 1 {
		t.Errorf("want exactly 1 finding, got %v", r.Findings)
	}
}

func TestUnboundedSplit(t *testing.T) {
	// Only "l" halves are ever produced: each replica's join starves, so
	// replicas accumulate forever.
	net := core.Serial(
		box("feed", "(<job>) -> (l, <p>, <job>)"),
		core.NamedSplit("pairs",
			core.Serial(
				core.NamedSync("pair", pat("{l, <p>, <job>}"), pat("{r, <p>, <job>}")),
				box("merge2", "(l, r, <p>, <job>) -> (out, <done>)"),
			),
			"p"),
	)
	r := compileAndAnalyze(t, net)
	wantFinding(t, r, analysis.CodeSyncStarvation, "/pair", "{r, <job>, <p>}")
	wantFinding(t, r, analysis.CodeUnboundedSplit, "/pairs", "grow without bound")
}

func TestSessionSplitExempt(t *testing.T) {
	// The same starving join under an uncapped session split is not an
	// unbounded-split finding: the session layer owns replica lifecycle.
	net := core.Serial(
		box("feed", "(<job>) -> (l, <p>, <job>)"),
		core.SessionSplit("sess",
			core.NamedSync("pair", pat("{l, <p>, <job>}"), pat("{r, <p>, <job>}")),
			"p"),
	)
	r := compileAndAnalyze(t, net)
	for _, f := range r.Findings {
		if f.Code == analysis.CodeUnboundedSplit {
			t.Errorf("session split must be exempt from unbounded-split, got %v", f)
		}
	}
	wantFinding(t, r, analysis.CodeSyncStarvation, "/pair", "{r, <job>, <p>}")
}

func TestMarkerHazardNestedSessionSplit(t *testing.T) {
	inner := core.SessionSplit("sess", box("g", "(a, <k>) -> (a, <k>)"), "k")
	net := core.NamedSplit("outer", inner, "shard")
	r := compileAndAnalyze(t, net)
	wantFinding(t, r, analysis.CodeMarkerHazard, "/sess", "nested inside")
}

func TestCleanWorkloads(t *testing.T) {
	for _, tc := range []struct {
		name string
		node core.Node
	}{
		{"wavefront", workloads.WavefrontNet(8, 61)},
		{"divconq", workloads.DivConqNet(64, 8)},
		{"webpipe", workloads.WebPipeNet()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := core.Compile(tc.node)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			r := analysis.Analyze(plan)
			if !r.Empty() {
				t.Errorf("want clean pass, got findings %v (codes %v)", r.Findings, codes(r))
			}
			if r.Nodes == 0 {
				t.Error("report counted no nodes")
			}
		})
	}
}
