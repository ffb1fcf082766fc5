package core

// The typed tree of a compiled Plan.
//
// GraphNode is the one carrier of what Compile knows about a network: the
// walk over the blueprint builds a node per position (path, kind, bottom-up
// signature, the structured artifacts a static analysis needs — patterns as
// Pattern values, the underlying Node identity for source-position mapping,
// split/star configuration — without exposing the unexported node types), and
// the flow pass (flow.go) writes into the same nodes what it saw reach and
// leave them.  internal/analysis reads the fields and follows Parent; Topology
// (plan.go), the serializable view — strings all the way down, built for JSON
// — is rendered from it.
//
// Fusion does not change the tree, only which of its stages share a goroutine
// (fuse.go), so every stage of a fused segment has its own GraphNode, path
// and flow facts.  Which stages are fused is reported separately
// (Topology.FusionGroups).

// GraphNode is one node of the compiled network's typed tree.  Paths and
// kinds match Topology exactly.
type GraphNode struct {
	Kind string // box, filter, sync, observe, serial, parallel, star, split, node
	Name string
	Path string
	Det  bool

	// Node is the underlying blueprint node — the identity front ends map
	// back to source positions (cf. TypeError.Subject).
	Node Node

	In, Out RecType // accepted / produced variants (bottom-up signature)

	// What the shape-flow pass saw at this position, as unions over every
	// visit (a star operand is visited once per fixpoint round).  Visited is
	// false for a node the pass never entered: unreachable under the analysed
	// input type.  A visited node with no FlowIn was entered only with an
	// empty variant set (a split operand behind a total missing-tag
	// rejection).  A star's FlowOut is its exit set.  Inexact says some visit
	// delivered an approximate set *to* the node (downstream of a synchrocell,
	// whose merged output depends on runtime contents, or after variant-set
	// truncation): findings drawn from it should be presented as imprecise.
	// A node never visited says nothing; ask its nearest visited ancestor.
	FlowIn, FlowOut  []Variant
	Visited, Inexact bool

	BoxSig   *BoxSignature // box only
	Filter   *FilterSpec   // filter only
	Patterns []Pattern     // sync only: the join patterns
	Exit     *Pattern      // star only: the exit pattern
	Tag      string        // split only: the index tag

	// Workers is the box's pinned invocation width W (box only;
	// NewBoxConcurrent).  0 means the box takes the run's WithBoxWorkers
	// width or, with none given, the width the engine grows it to, so a
	// capacity analysis must substitute its assumed run width; the box then
	// holds up to BoxEngineHold(W, B) records.
	Workers int

	Parent   *GraphNode // nil at the root
	Children []*GraphNode
}

// The static capacity model of the runtime's blocking points.  These are
// the single source of truth shared by the transport layer and the
// occupancy analysis (internal/analysis): if a buffer is added or resized
// in the runtime, the bound formula changes here, in one place.
//
// There is no term for a fused segment or a stage dispatcher (fuse.go), which
// park nothing: the analysis prices every edge and site as a part of its own —
// what a segment runs as once a box of it must run concurrently
// (segment.cut) — so its bound covers the plan's grouping and every cut of it.

// StreamCapacity returns the worst-case number of in-flight items on one
// stream edge: `buffer` queued frames of up to `batch` items each, plus the
// writer's pending batch (up to `batch` items accumulated before the next
// flush), plus the single item the reader holds in hand.
func StreamCapacity(buffer, batch int) int64 {
	b := int64(max(batch, 1))
	return int64(max(buffer, 0))*b + b + 1
}

// BranchWriterHold returns the worst-case number of records held by the
// output writer of one combinator branch: its pending batch, which it ships
// straight into a merge queue (merge.go) — its site's, or, at a direct site,
// the queue the site's own output feeds.
func BranchWriterHold(batch int) int64 { return int64(max(batch, 1)) }

// MergeQueueCapacity returns the worst-case number of records in one merge
// queue — buffer+mergeQueueSlack frames of up to `batch` items — plus the
// frame its merger is consuming.  A site starts one unless it is direct
// (merge.go) — non-deterministic, below no deterministic site, writing a
// branch of another — or a stage (fuse.go).
func MergeQueueCapacity(buffer, batch int) int64 {
	b := int64(max(batch, 1))
	return int64(max(buffer, 0)+mergeQueueSlack)*b + b
}

// BoxEngineHold returns the worst-case number of records held inside one box
// node at width W and batch size B.  Inline (W <= 1) that is the record in
// hand.  Concurrent it is the inputs in flight and queued — one per worker
// and the one the dispatcher hands on, W+1 — plus, per live slot of the
// reorder queue (W+1 queued and the head the releaser drains), the writer's
// pending batch and the one frame its emission stream buffers, 2B each
// (runConcurrent), plus the rest of the frame the releaser has in hand, B.
func BoxEngineHold(workers, batch int) int64 {
	if workers <= 1 {
		return 1
	}
	w, b := int64(workers), int64(max(batch, 1))
	return w + 1 + 2*b*(w+2) + b
}

// Graph returns the structured graph of the compiled network: the tree the
// compile walk built, shared by every caller — treat it as read-only.
func (p *Plan) Graph() *GraphNode { return p.graph }

// renderTopology renders the structured graph into its serializable view.
func renderTopology(g *GraphNode) *Topology {
	t := &Topology{Kind: g.Kind, Name: g.Name, Path: g.Path, Det: g.Det,
		In: renderType(g.In), Out: renderType(g.Out), Tag: g.Tag}
	switch {
	case g.BoxSig != nil:
		t.Sig = g.BoxSig.String()
	case g.Filter != nil:
		t.Sig = g.Filter.String()
	case g.Exit != nil:
		t.Exit = g.Exit.String()
	}
	for _, p := range g.Patterns {
		t.Patterns = append(t.Patterns, p.String())
	}
	for _, c := range g.Children {
		t.Children = append(t.Children, renderTopology(c))
	}
	return t
}
