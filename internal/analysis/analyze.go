package analysis

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// Analyze runs every check over the compiled plan under the default
// capacity assumptions and returns the findings, sorted by (Path, Code,
// Msg).  The plan may have compile-time TypeErrors; the analysis still runs
// (the tree carries its flow facts either way) and suppresses findings the
// compile pass already reported as errors at the same path.
func Analyze(p *core.Plan) *Report {
	return AnalyzeWithCaps(p, DefaultCaps())
}

// AnalyzeWithCaps is Analyze under explicit capacity assumptions: the
// occupancy bound, the deadlock verdict and any capacity-overflow finding
// are guarantees about runs configured at or below the given caps.
func AnalyzeWithCaps(p *core.Plan, caps Caps) *Report {
	a := &analyzer{
		caps:           caps,
		errPaths:       map[string]string{},
		cycleProducers: map[*Finding][]*core.GraphNode{},
	}
	for _, te := range p.TypeErrors() {
		a.errPaths[te.Path] = te.Code
	}
	g := p.Graph()
	a.walk(g, !reached(g)) // a root nothing reaches has no dead arms worth naming
	a.checkDeadlocks()
	a.computeBound(g)
	a.attachTraces()
	a.findings = sortAndDedupe(a.findings)
	return &Report{
		Findings: a.findings,
		Nodes:    a.nodes,
		Edges:    a.edges,
		Bound:    a.bound,
		Caps:     a.caps,
	}
}

// sortAndDedupe orders findings by (Path, Code, Msg) and collapses repeats
// from shared memoized subtrees: the same defect on the same underlying
// node, reached at several paths, is reported once at the lowest path.
func sortAndDedupe(findings []*Finding) []*Finding {
	sort.SliceStable(findings, func(i, j int) bool {
		x, y := findings[i], findings[j]
		if x.Path != y.Path {
			return x.Path < y.Path
		}
		if x.Code != y.Code {
			return x.Code < y.Code
		}
		return x.Msg < y.Msg
	})
	type key struct {
		code    string
		subject core.Node
		variant string
		msg     string
	}
	seen := map[key]bool{}
	out := findings[:0]
	for _, f := range findings {
		k := key{f.Code, f.at.Node, fmt.Sprintf("%v", f.Variant), f.Msg}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, f)
	}
	return out
}

// analyzer is the state of one Analyze call.
type analyzer struct {
	caps     Caps
	findings []*Finding
	nodes    int
	edges    int
	bound    *Bound
	// errPaths maps node paths with compile-time TypeErrors to their code,
	// to avoid re-reporting the same defect as a finding.
	errPaths map[string]string
	// cycleProducers maps each deadlock-cycle finding to the producers that
	// close its wait-for cycle — consumed by trace construction.
	cycleProducers map[*Finding][]*core.GraphNode
}

// emit reports a finding at g, as exact as the flow that reached g.
func (a *analyzer) emit(g *core.GraphNode, code string, variant core.Variant, msg string) {
	a.emitExact(g, code, variant, msg, !g.Inexact)
}

func (a *analyzer) emitExact(g *core.GraphNode, code string, variant core.Variant, msg string, exact bool) {
	a.findings = append(a.findings, &Finding{
		Code:    code,
		Path:    g.Path,
		Node:    g.Name,
		Variant: variant,
		Msg:     msg,
		Exact:   exact,
		at:      g,
	})
}

// reached reports whether the flow pass delivered at least one variant to g.
func reached(g *core.GraphNode) bool { return g.Visited && len(g.FlowIn) > 0 }

// walk visits the tree; deadReported says a dead-arm finding was already
// emitted for an ancestor — descendants of a dead subgraph are not re-reported.
func (a *analyzer) walk(g *core.GraphNode, deadReported bool) {
	a.nodes++
	if reached(g) {
		switch g.Kind {
		case "sync":
			a.checkSync(g)
		case "star":
			a.checkStar(g)
		}
	} else if !deadReported {
		a.checkDeadArm(g)
		deadReported = true
	}
	for _, ch := range g.Children {
		a.walk(ch, deadReported)
	}
}
