package lang

import (
	"repro/internal/analysis"
	"repro/internal/core"
)

// AnalyzeNetWithCaps is CompileNet followed by the deadlock & boundedness
// verifier under caps: the report's findings and their counterexample traces
// carry .snet positions from the builder's node→Pos index.  The report is
// non-nil whenever the build succeeded, type errors or not; the error is
// CompileNet's.
func AnalyzeNetWithCaps(prog *Program, netName string, reg *Registry, caps analysis.Caps) (*core.Plan, *analysis.Report, error) {
	b, plan, cerr := compileNet(prog, netName, reg)
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
