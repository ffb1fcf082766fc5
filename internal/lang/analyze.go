package lang

import (
	"repro/internal/analysis"
	"repro/internal/core"
)

// AnalyzeNet is CompileNet followed by the graph-level static analysis: it
// builds the named net, compiles it, decorates both the TypeErrors and the
// analysis Findings with .snet source positions (via the builder's node→Pos
// index), and returns the plan, the lint report, and the compile error (nil
// when the net type-checks).  The report is always non-nil when err is a
// *core.CompileError or nil — analysis runs even on plans with type errors.
func AnalyzeNet(prog *Program, netName string, reg *Registry, opts ...core.CompileOption) (*core.Plan, *analysis.Report, error) {
	return AnalyzeNetWithCaps(prog, netName, reg, analysis.DefaultCaps(), opts...)
}

// AnalyzeNetWithCaps is AnalyzeNet under explicit capacity assumptions —
// the front end of the deadlock & boundedness verifier: the report's bound,
// verdict and counterexample traces are all decorated with .snet positions.
func AnalyzeNetWithCaps(prog *Program, netName string, reg *Registry, caps analysis.Caps, opts ...core.CompileOption) (*core.Plan, *analysis.Report, error) {
	b, plan, cerr := compileNet(prog, netName, reg, opts)
	if b == nil { // the build failed: nothing to analyze
		return nil, nil, cerr
	}
	rep := analysis.AnalyzeWithCaps(plan, caps)
	for _, f := range rep.Findings {
		if pos, ok := b.Positions[f.Subject()]; ok {
			f.Pos = pos.String()
		}
		for i := range f.Trace {
			if pos, ok := b.Positions[f.Trace[i].Subject()]; ok {
				f.Trace[i].Pos = pos.String()
			}
		}
	}
	return plan, rep, cerr
}
