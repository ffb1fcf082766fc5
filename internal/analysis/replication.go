package analysis

import (
	"fmt"

	"repro/internal/core"
)

// The replication checks: unbounded split growth and the close-barrier
// hazard of a session split under replication.

// checkSplits follows a starving synchrocell up the tree: a capped, reached
// split it stands under accumulates replicas without bound — each tag value
// instantiates a replica whose join holds records forever, and with the join
// never completing there is no quiescent point for idle reap or a close
// record to retire the replica cleanly.  Session splits (uncapped) are
// exempt: their lifecycle is owned by the session layer's close/ack protocol,
// not by the data flow.
func (a *analyzer) checkSplits(sync *core.GraphNode, awaited core.Variant) {
	for g := sync.Parent; g != nil; g = g.Parent {
		if g.Kind == "split" && !g.Uncapped && reached(g) {
			a.emit(g, CodeUnboundedSplit, awaited, fmt.Sprintf(
				"replicas of split %s (indexed by <%s>) grow without bound: the synchrocell at %s can never complete its join, so every tag value leaves a replica holding records forever with no close or reap path retiring it",
				g.Name, g.Tag, sync.Path))
		}
	}
}

// checkSessionNesting flags an uncapped session split nested inside another
// replicating combinator.  The close/ack barrier is FIFO only within one
// stream; inside an enclosing split the barrier degrades to merge order
// across sibling replicas, and inside a star each lazily-unfolded stage has
// its own replica map, so a close record retires at most the first stage's
// replica.  The session layer relies on the barrier being exact and always
// places its split at the root.
func (a *analyzer) checkSessionNesting(g *core.GraphNode) {
	if !g.Uncapped {
		return
	}
	outer := enclosing(g, "split")
	if outer == nil {
		outer = enclosing(g, "star")
	}
	if outer == nil {
		return
	}
	a.emit(g, CodeMarkerHazard, nil, fmt.Sprintf(
		"session split %s is nested inside the %s at %s: the replica close/ack barrier only orders control records within one enclosing replica, so session close records can be dropped or reordered against data",
		g.Name, outer.Kind, outer.Path))
}
