package analysis

import (
	"fmt"

	"repro/internal/core"
)

// The replication check: unbounded split growth.

// checkSplits follows a starving synchrocell up the tree: a reached split it
// stands under accumulates replicas without bound — each tag value
// instantiates a replica whose join holds records forever, and with the join
// never completing nothing retires the replica.
func (a *analyzer) checkSplits(sync *core.GraphNode, awaited core.Variant) {
	for g := sync.Parent; g != nil; g = g.Parent {
		if g.Kind == "split" && reached(g) {
			a.emit(g, CodeUnboundedSplit, awaited, fmt.Sprintf(
				"replicas of split %s (indexed by <%s>) grow without bound: the synchrocell at %s can never complete its join, so every tag value leaves a replica holding records forever with no close or reap path retiring it",
				g.Name, g.Tag, sync.Path))
		}
	}
}
