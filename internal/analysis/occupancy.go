package analysis

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// The occupancy pass: an abstract interpretation of the compiled graph under
// explicit capacity assumptions.  Every blocking point of the runtime —
// stream edges (buffer × batch frames plus the writer's pending batch and
// the reader's in-hand item), box engines (inputs in flight, reorder slots),
// synchrocell stores, branch output writers (a pending batch each: a branch
// has no output edge), the merge queue of every site that starts one,
// replication chains — contributes a worst-case record count, and the sum is
// the whole-plan static memory high-water bound: no schedule of a
// deadlock-free plan can hold more records at once.
//
// The bound prices every serial edge of the plan's tree as a stream, whether
// or not Compile's one grouping (spineCutter) puts the stages on either side
// into one segment; Plan.Graph() is the one tree there is.  A segment hands
// records from stage to stage depth-first and parks nothing in between: each
// stage holds what it holds when it runs alone, and the streams between them
// are simply absent.  So the bound is sound for the grouping every plan
// gets, where a grouped edge is counted but never filled.

// Caps are the capacity assumptions an occupancy verdict holds under.  They
// mirror the run options (WithBuffer, WithStreamBatch, WithBoxWorkers,
// WithMaxSplitWidth, WithMaxStarDepth): the verdict is a guarantee about any
// run configured at or below these values.
type Caps struct {
	// StreamBuffer is the per-stream frame buffer (WithBuffer).
	StreamBuffer int `json:"streamBuffer"`
	// StreamBatch is the frame batch size B (WithStreamBatch).
	StreamBatch int `json:"streamBatch"`
	// BoxWorkers is the assumed invocation width W for boxes that do not
	// pin their own width (WithBoxWorkers); pinned boxes use their own.
	// It also covers a run that gives no width at all: such a box holds 1
	// record while it runs inline and at most BoxEngineHold(GOMAXPROCS, B)
	// once the engine has grown it, so the verdict holds for every run on
	// at most BoxWorkers processors — the same term either way.
	BoxWorkers int `json:"boxWorkers"`
	// SplitWidth is the assumed live replica count per indexed split: the
	// width its tag values fold into.
	SplitWidth int `json:"splitWidth"`
	// StarDepth is the assumed unfolded stage count per serial replication.
	StarDepth int `json:"starDepth"`
	// MemoryBudget, when positive, turns the bound into an admission
	// verdict: a finite bound above the budget is a capacity-overflow
	// finding.  Zero disables the check.
	MemoryBudget int64 `json:"memoryBudget,omitempty"`
}

// DefaultCaps returns the capacity assumptions matching the runtime's
// defaults: 32-frame buffers, batch 8, width-4 boxes, and 64 live replicas
// per replication site.
func DefaultCaps() Caps {
	return Caps{
		StreamBuffer: core.DefaultStreamBuffer,
		StreamBatch:  core.DefaultStreamBatch,
		BoxWorkers:   4,
		SplitWidth:   64,
		StarDepth:    64,
	}
}

// ReplicaTerm is one replication site's contribution to the bound: PerUnit
// records per live replica (operand occupancy plus the replica's own
// edges), Units assumed replicas, Subtotal their product.  For a site
// nested inside another replication the term is per single enclosing
// replica; the enclosing site's PerUnit already includes it.
type ReplicaTerm struct {
	Path     string `json:"path"`
	Kind     string `json:"kind"` // "star" or "split"
	PerUnit  int64  `json:"perUnit"`
	Units    int64  `json:"units"`
	Subtotal int64  `json:"subtotal"`
}

// Bound is the whole-plan static memory high-water bound, in records.
type Bound struct {
	// Fixed is the non-replicated part: every stream edge, box engine,
	// synchrocell, branch writer and merge queue outside any replication
	// site.
	Fixed int64 `json:"fixed"`
	// Replicas are the replication sites' contributions.
	Replicas []ReplicaTerm `json:"replicas,omitempty"`
	// Finite is false when some subgraph's occupancy grows without bound
	// under any finite capacity assumption (a diverging star); Total is
	// then only the truncated sum at the assumed StarDepth.
	Finite bool `json:"finite"`
	// Total is Fixed plus all replica subtotals plus the two boundary
	// streams.
	Total int64 `json:"total"`
}

// String renders the bound as a one-line verdict fragment.
func (b *Bound) String() string {
	if b == nil {
		return "no bound"
	}
	if !b.Finite {
		return "unbounded occupancy"
	}
	return fmt.Sprintf("%d records (%d fixed + %d replicated)", b.Total, b.Fixed, b.Total-b.Fixed)
}

// bounder is the state of one occupancy computation.
type bounder struct {
	caps  Caps
	bound *Bound
	edges int
	// replDepth counts enclosing replication sites; node holds are
	// attributed to Bound.Fixed only at depth zero (inside a site they are
	// part of that site's PerUnit).
	replDepth int
	// sites are the replication sites, in the order of bound.Replicas.
	sites []*core.GraphNode
}

// site records one replication site's term.
func (b *bounder) site(g *core.GraphNode, per, units int64) int64 {
	b.sites = append(b.sites, g)
	b.bound.Replicas = append(b.bound.Replicas, ReplicaTerm{
		Path: g.Path, Kind: g.Kind, PerUnit: per, Units: units, Subtotal: per * units,
	})
	return per * units
}

// edgeCap is the worst-case record count of one stream edge under the caps.
func (b *bounder) edgeCap() int64 {
	b.edges++
	return core.StreamCapacity(b.caps.StreamBuffer, b.caps.StreamBatch)
}

// branchOut is the worst-case record count behind one branch's output: the
// pending batch of its writer, which ships straight into the merge queue.
func (b *bounder) branchOut() int64 { return core.BranchWriterHold(b.caps.StreamBatch) }

// mergeQueue is the worst-case record count of g's merge queue, an unfolded
// tap's if tap: none where g is direct (core.MergeQueueCapacity) — a tap or
// the end of a parallel branch's or split operand's spine, below no det site.
func (b *bounder) mergeQueue(g *core.GraphNode, tap bool) int64 {
	end := g
	for end.Parent != nil && end.Parent.Kind == "serial" && end.Parent.Children[1] == end {
		end = end.Parent
	}
	direct := tap || end.Parent != nil && (end.Parent.Kind == "parallel" || end.Parent.Kind == "split")
	for p := g; p != nil && direct; p = p.Parent {
		direct = !p.Det
	}
	if direct {
		return 0
	}
	return core.MergeQueueCapacity(b.caps.StreamBuffer, b.caps.StreamBatch)
}

// fixed attributes a hold to the non-replicated part of the bound when we
// are outside every replication site, and returns it unchanged either way.
func (b *bounder) fixed(n int64) int64 {
	if b.replDepth == 0 {
		b.bound.Fixed += n
	}
	return n
}

// node returns the worst-case record count held inside the subtree at g:
// the nodes' own holds plus every internal stream edge.
func (b *bounder) node(g *core.GraphNode) int64 {
	switch g.Kind {
	case "box":
		w := g.Workers
		if w <= 0 {
			w = b.caps.BoxWorkers
		}
		return b.fixed(core.BoxEngineHold(w, b.caps.StreamBatch))
	case "sync":
		// One stored record per join pattern (the fire drains them all).
		n := int64(len(g.Patterns))
		if n < 1 {
			n = 1
		}
		return b.fixed(n)
	case "serial":
		return b.node(g.Children[0]) + b.fixed(b.edgeCap()) + b.node(g.Children[1])
	case "parallel":
		// The dispatcher's record in hand and the merge queue; per branch an
		// input edge, the branch subtree and its writer's pending batch.
		occ := b.fixed(1) + b.fixed(b.mergeQueue(g, false))
		for _, ch := range g.Children {
			occ += b.fixed(b.edgeCap()) + b.node(ch) + b.fixed(b.branchOut())
		}
		return occ
	case "star":
		// Every tap is a fanout (star.go): the dispatcher's record in hand, the
		// exit writer's pending batch and its merge queue.  The entry edge and
		// tap are per site; each unfolded stage starts one operand instance,
		// the streams into and out of it, the next tap and the chain's writer.
		tap := func(unfolded bool) int64 { return b.fixed(1 + b.branchOut() + b.mergeQueue(g, unfolded)) }
		occ := b.fixed(b.edgeCap()) + tap(false)
		b.replDepth++
		per := b.edgeCap() + b.node(g.Children[0]) + b.edgeCap() + tap(true) + b.branchOut()
		b.replDepth--
		if diverges(g) {
			b.bound.Finite = false
		}
		return occ + b.site(g, per, int64(b.caps.StarDepth))
	case "split":
		// Per site the router's record in hand and the merge queue; per live
		// replica its input edge, one operand instance and its writer's batch.
		occ := b.fixed(1) + b.fixed(b.mergeQueue(g, false))
		b.replDepth++
		per := b.edgeCap() + b.node(g.Children[0]) + b.branchOut()
		b.replDepth--
		return occ + b.site(g, per, int64(b.caps.SplitWidth))
	default: // filter, observe, node: one record in hand
		occ := b.fixed(1)
		for _, ch := range g.Children {
			occ += b.fixed(b.edgeCap()) + b.node(ch)
		}
		return occ
	}
}

// computeBound runs the occupancy pass: it fills Report.Bound/Edges and
// emits the capacity-overflow finding against a configured budget.
func (a *analyzer) computeBound(root *core.GraphNode) {
	b := &bounder{caps: a.caps, bound: &Bound{Finite: true}}
	occ := b.node(root)
	// The network boundary: the input stream and the output record channel.
	occ += b.fixed(b.edgeCap()) + b.fixed(b.edgeCap())
	b.bound.Total = occ
	a.bound = b.bound
	a.edges = b.edges

	if a.caps.MemoryBudget > 0 && a.bound.Finite && a.bound.Total > a.caps.MemoryBudget {
		f := &Finding{
			Code: CodeCapacityOverflow,
			Path: root.Path,
			Node: root.Name,
			Msg: fmt.Sprintf(
				"static memory high-water bound of %d records exceeds the budget of %d: the plan is admissible only with more memory or smaller caps (buffer %d, batch %d, %d replicas per site)",
				a.bound.Total, a.caps.MemoryBudget, a.caps.StreamBuffer, a.caps.StreamBatch, a.caps.SplitWidth),
			Exact: true,
			at:    root,
		}
		f.Trace = append(f.Trace, TraceStep{
			Path: root.Path, Node: root.Name, subject: root.Node,
			State: fmt.Sprintf("fixed plumbing holds up to %d records (%d stream edges at %d each, plus engines, branch writers and merge queues)",
				a.bound.Fixed, a.edges, core.StreamCapacity(a.caps.StreamBuffer, a.caps.StreamBatch)),
		})
		// The three largest replication terms.
		terms := a.bound.Replicas
		order := make([]int, len(terms))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool {
			x, y := terms[order[i]], terms[order[j]]
			if x.Subtotal != y.Subtotal {
				return x.Subtotal > y.Subtotal
			}
			return x.Path < y.Path
		})
		for _, i := range order[:min(3, len(order))] {
			t, g := terms[i], b.sites[i]
			f.Trace = append(f.Trace, TraceStep{Path: t.Path, Node: g.Name, subject: g.Node, State: fmt.Sprintf(
				"%s contributes %d records: %d per replica × %d assumed replicas", t.Kind, t.Subtotal, t.PerUnit, t.Units)})
		}
		a.findings = append(a.findings, f)
	}
}
