package analysis

import (
	"fmt"

	"repro/internal/core"
)

// The liveness checks: synchrocell starvation and star divergence.  Both
// read the flow facts on the node itself, so their verdicts are about the
// closed-world input type the plan was compiled against.

// checkSync classifies each join pattern of a reached synchrocell as
// fillable (some reaching variant supplies it) or starving.  A mix of the
// two is the paper-level deadlock of join coordination: records matching
// the fillable patterns are stored awaiting a partner that never arrives.
// All patterns starving means the cell never fires at all and degenerates
// to an identity — reported as a dead arm instead.
func (a *analyzer) checkSync(g *core.GraphNode) {
	in := g.FlowIn
	var fillable, starving []core.Pattern
	for _, p := range g.Patterns {
		supplied := false
		for _, v := range in {
			if p.Variant.SubsetOf(v) {
				supplied = true
				break
			}
		}
		if supplied {
			fillable = append(fillable, p)
		} else {
			starving = append(starving, p)
		}
	}
	if len(starving) == 0 {
		return
	}
	if len(fillable) == 0 {
		a.emit(g, CodeDeadArm, nil, fmt.Sprintf(
			"synchrocell %s never fires: no variant of the upstream flow matches any join pattern; the cell degenerates to an identity",
			g.Name))
		return
	}
	for _, p := range starving {
		a.emit(g, CodeSyncStarvation, p.Variant, fmt.Sprintf(
			"join pattern %s of synchrocell %s can never be filled: no variant of the upstream flow %v supplies it; records matching %s are stored and held forever — the join deadlocks",
			p, g.Name, in, renderPatterns(fillable)))
	}
	// One unbounded-split finding a cell, however many of its patterns starve.
	a.checkSplits(g, starving[len(starving)-1].Variant)
}

// diverges reports a reached star whose exit set is empty: the flow
// fixpoint found no variant — neither an input nor anything the operand
// produces — that satisfies the exit pattern, so records circulate (and the
// chain unfolds) without bound.
func diverges(g *core.GraphNode) bool {
	return g.Kind == "star" && reached(g) && len(g.FlowOut) == 0
}

// checkStar reports a diverging star twice over: nothing leaves it, and what
// enters it accumulates under any finite capacity assumption (the occupancy
// pass marks the bound not finite by the same test).
func (a *analyzer) checkStar(g *core.GraphNode) {
	if !diverges(g) {
		return
	}
	a.emit(g, CodeStarDivergence, nil, fmt.Sprintf(
		"no record entering star %s can ever satisfy its exit pattern %s: the replication chain unfolds without bound and no record leaves",
		g.Name, g.Exit))
	a.emit(g, CodeUnboundedOccupancy, nil, fmt.Sprintf(
		"queue occupancy of star %s grows without bound: every entering record stays in the replication chain, so no finite buffer, batch or depth cap yields a memory high-water bound",
		g.Name))
}

func renderPatterns(ps []core.Pattern) string {
	s := ""
	for i, p := range ps {
		if i > 0 {
			s += ", "
		}
		s += p.String()
	}
	return s
}
