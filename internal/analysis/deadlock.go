package analysis

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// The deadlock pass: wait-for cycle detection over the coordination
// structure, and counterexample trace construction for every deadlock-class
// finding.
//
// A compiled plan's stream edges form a tree — the only cyclic edge shape
// is a star's feedback (GraphNode.Feedback): each unfolded stage's chain
// port feeds the next replica of the same operand.  A starving join is
// therefore a plain starvation unless the variant it awaits has a producer
// that the join's own output feeds: a producer strictly downstream in
// pipeline order (the records that could complete the join can only
// materialize after it has fired), or a producer sharing a star feedback
// loop with the join.  Either way the wait is circular and no schedule
// resolves it — those starvation findings are upgraded to deadlock-cycle
// with the producer appended to the trace.  Everything else the flow pass
// reached and the occupancy pass bounded is proven deadlock-free: acyclic
// bounded streams drain, so blocking is always transient.

// checkDeadlocks upgrades sync-starvation findings whose awaited variant
// has a producer fed by the join's own output, and records the producer for
// trace construction.
func (a *analyzer) checkDeadlocks() {
	for _, f := range a.findings {
		if f.Code != CodeSyncStarvation || f.Variant == nil {
			continue
		}
		prods := downstreamProducers(f.at, f.Variant)
		if len(prods) == 0 {
			continue
		}
		p := prods[0]
		f.Code = CodeDeadlockCycle
		f.Msg = fmt.Sprintf(
			"wait-for cycle: synchrocell %s awaits %s, but its only producer (%s at %s) is fed through the cell itself — the records that could complete the join can only exist after it has fired",
			f.Node, f.Variant, p.Name, p.Path)
		a.cycleProducers[f] = prods
	}
}

// downstreamProducers returns the leaf nodes whose declared output supplies
// variant v and whose input is fed by the output of from, innermost first:
// following Parent upwards, the b-side of every serial combinator from stands
// on the a-side of, and — through star feedback — every producer sharing a
// star operand with from.  from itself is excluded.
func downstreamProducers(from *core.GraphNode, v core.Variant) []*core.GraphNode {
	var out []*core.GraphNode
	for ch, g := from, from.Parent; g != nil; ch, g = g, g.Parent {
		switch {
		case g.Kind == "serial" && ch == g.Children[0]:
			out = append(out, producersIn(g.Children[1], from, v)...)
		case g.Kind == "star":
			// Feedback: the operand's output re-enters the operand, so every
			// producer in the loop is downstream of every node in it — those
			// found so far among them.
			out = producersIn(ch, from, v)
		}
	}
	return out
}

// producersIn collects leaves of the subtree (excluding skip) whose declared
// output signature includes a variant supplying v.
func producersIn(g, skip *core.GraphNode, v core.Variant) []*core.GraphNode {
	var out []*core.GraphNode
	if g != skip && len(g.Children) == 0 {
		for _, o := range g.Out {
			if v.SubsetOf(o) {
				out = append(out, g)
				break
			}
		}
	}
	for _, ch := range g.Children {
		out = append(out, producersIn(ch, skip, v)...)
	}
	return out
}

// attachTraces builds the counterexample trace for every deadlock-class
// finding: the ordered chain of graph edges from the network entry to the
// defect, each annotated with its blocking fill state, then the defect's
// held/awaited state — and for wait-for cycles, the producer that closes
// the cycle.
func (a *analyzer) attachTraces() {
	edgeState := fmt.Sprintf("fills to %d items (%d frames × %d + %d pending + 1 in hand), then blocks its writer",
		core.StreamCapacity(a.caps.StreamBuffer, a.caps.StreamBatch),
		a.caps.StreamBuffer, a.caps.StreamBatch, a.caps.StreamBatch)
	for _, f := range a.findings {
		if !deadlockCodes[f.Code] || len(f.Trace) > 0 {
			continue
		}
		var chain []*core.GraphNode // root … f.at
		for g := f.at; g != nil; g = g.Parent {
			chain = append(chain, g)
		}
		slices.Reverse(chain)
		for i, g := range chain[:len(chain)-1] {
			state := fmt.Sprintf("records enter %s %s", g.Kind, g.Name)
			if i > 0 {
				state = fmt.Sprintf("the bounded stream into %s %s %s", g.Kind, g.Name, edgeState)
			}
			f.Trace = append(f.Trace, TraceStep{Path: g.Path, Node: g.Name, State: state, subject: g.Node})
		}
		g := chain[len(chain)-1]
		f.Trace = append(f.Trace, TraceStep{
			Path: g.Path, Node: g.Name, subject: g.Node,
			State: defectState(f, g),
		})
		for _, p := range a.cycleProducers[f] {
			f.Trace = append(f.Trace, TraceStep{
				Path: p.Path, Node: p.Name, subject: p.Node,
				State: fmt.Sprintf(
					"%s %s is the only producer of %s, and its input is fed by the blocked join's output — the wait-for cycle closes here",
					p.Kind, p.Name, f.Variant),
			})
		}
	}
}

// defectState renders the final trace step's held/awaited state per code.
func defectState(f *Finding, g *core.GraphNode) string {
	switch f.Code {
	case CodeSyncStarvation, CodeDeadlockCycle:
		return fmt.Sprintf(
			"synchrocell %s stores a record per fillable join pattern and awaits %s, which never arrives — the stored records are held forever",
			g.Name, f.Variant)
	case CodeStarDivergence, CodeUnboundedOccupancy:
		return fmt.Sprintf(
			"records circulate through star %s without ever satisfying the exit pattern: each pass re-enters the feedback edge and occupancy grows by one per entering record",
			g.Name)
	case CodeUnboundedSplit:
		return fmt.Sprintf(
			"every distinct <%s> value instantiates a replica of split %s whose join never completes, so replicas accumulate without a retire path",
			g.Tag, g.Name)
	}
	return f.Msg
}
