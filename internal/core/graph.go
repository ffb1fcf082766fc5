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
	Uncapped bool          // split only: SessionSplit (width-fold exempt)

	// Workers is the box's pinned invocation width W (box only;
	// NewBoxConcurrent).  0 means the box takes the run's WithBoxWorkers
	// width or, with none given, the width the engine grows it to, so a
	// capacity analysis must substitute its assumed run width.  The box
	// engine holds up to BoxEngineHold(W) records: W in flight plus the
	// reorder stage's completed-but-unreleased slots (inline mode holds 1).
	Workers int

	// Feedback marks the node as owning the graph's only cyclic edge shape
	// (star only): each lazily-unfolded stage's chain port feeds the next
	// replica of the same operand, so records that never satisfy the exit
	// pattern circulate — the wait-for structure the deadlock analysis walks.
	// All other edges of a compiled plan form a tree and cannot cycle.
	Feedback bool

	Parent   *GraphNode // nil at the root
	Children []*GraphNode
}

// The static capacity model of the runtime's blocking points.  These are
// the single source of truth shared by the transport layer and the
// occupancy analysis (internal/analysis): if a buffer is added or resized
// in the runtime, the bound formula changes here, in one place.
//
// There is no term for a fused segment.  A segment parks nothing between
// its stages (fuse.go): each stage holds what it holds when it runs alone,
// and the streams between them are simply not there.  The analysis prices
// every edge of the tree as a stream, so its bound covers any grouping of
// the stages, and verdicts cannot depend on whether fusion ran.

// StreamCapacity returns the worst-case number of in-flight items on one
// stream edge: `buffer` queued frames of up to `batch` items each, plus the
// writer's pending batch (up to `batch` items accumulated before the next
// flush), plus the single item the reader holds in hand.
func StreamCapacity(buffer, batch int) int64 {
	if buffer < 0 {
		buffer = 0
	}
	if batch < 1 {
		batch = 1
	}
	return int64(buffer)*int64(batch) + int64(batch) + 1
}

// BranchWriterHold returns the worst-case number of records held by the
// output writer of one combinator branch.  A branch has no output stream:
// its writer ships frames straight into the site's merge queue (merge.go),
// so all it ever holds is its pending batch.
func BranchWriterHold(batch int) int64 {
	if batch < 1 {
		batch = 1
	}
	return int64(batch)
}

// MergeQueueCapacity returns the worst-case number of records between the
// branches of one fanout and its output: the one merge queue all its
// branches share — buffer+mergeQueueSlack frames of up to `batch` items —
// plus the frame the merger is consuming.  A parallel or split site is one
// fanout; a star is one per unfolded stage, every tap being a fanout of its
// own with two branches, the exit and the rest of the chain (star.go).
func MergeQueueCapacity(buffer, batch int) int64 {
	if buffer < 0 {
		buffer = 0
	}
	if batch < 1 {
		batch = 1
	}
	return int64(buffer+mergeQueueSlack)*int64(batch) + int64(batch)
}

// BoxEngineHold returns the worst-case number of records held inside one
// concurrent box node at width W: W invocations in flight plus up to W-1
// completed results parked in the FIFO reorder stage awaiting the head.
func BoxEngineHold(workers int) int64 {
	if workers < 1 {
		workers = 1
	}
	return 2*int64(workers) - 1
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
