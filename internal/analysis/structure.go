package analysis

import (
	"fmt"

	"repro/internal/core"
)

// checkDeadArm reports the topmost node of a subgraph the flow pass never
// delivered a variant to.  The compile pass already errors on the exact
// unreachable-parallel-branch case; this check covers the rest — branches
// that are only approximately unreachable (downstream of a synchrocell,
// where the compile pass can only warn), star chains every input variant
// bypasses, and split operands behind a total index-tag rejection.
func (a *analyzer) checkDeadArm(g *core.GraphNode) {
	if a.errPaths[g.Path] == core.ErrCodeUnreachable {
		return // already a definite compile error at this path
	}
	msg := fmt.Sprintf("%s is never reached by any variant of the closed-world input type", g.Name)
	parent := g.Parent
	if parent != nil {
		switch parent.Kind {
		case "parallel":
			msg = fmt.Sprintf(
				"parallel branch %s is dead: no variant of the closed-world input type routes to it",
				g.Name)
		case "star":
			msg = fmt.Sprintf(
				"the replication chain of star %s is never entered: every input variant satisfies the exit pattern %s immediately",
				parent.Name, parent.Exit)
		case "split":
			msg = fmt.Sprintf(
				"the operand of split %s is never reached: no variant carries its index tag <%s>",
				parent.Name, parent.Tag)
		}
	}
	// The dead node itself has no flow facts; exactness comes from the
	// nearest visited node — its parent (dead arms are reported topmost, so
	// the parent was reached or is the live root).
	a.emitExact(g, CodeDeadArm, nil, msg, parent == nil || !parent.Inexact)
}
