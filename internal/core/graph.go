package core

// The structured graph API of a compiled Plan.
//
// Topology (plan.go) is the *serializable* view of the typed graph — strings
// all the way down, built for JSON.  GraphNode is the *analyzable* view: the
// same tree, but carrying the structured artifacts a static-analysis pass
// needs (patterns as Pattern values, the underlying Node identity for
// source-position mapping, split/star configuration) without exposing the
// unexported node types themselves.  internal/analysis consumes it together
// with the Flow* accessors below.
//
// Compile builds the GraphNode tree in its one walk over the blueprint, the
// tree Start runs; Topology is rendered from it.  Fusion does not change the
// tree, only which of its stages share a goroutine (fuse.go), so every stage
// of a fused segment has its own GraphNode, path and flow facts.  Which
// stages are fused is reported separately (Topology.FusionGroups).

// GraphNode is one node of the compiled network's structured graph.  Paths
// and kinds match Topology exactly, so flow facts recorded by the compile
// pass (FlowIn/FlowOut/FlowExact) can be looked up by Path.
type GraphNode struct {
	Kind string // box, filter, sync, observe, hide, serial, parallel, star, split, node
	Name string
	Path string
	Det  bool

	// Node is the underlying blueprint node — the identity front ends map
	// back to source positions (cf. TypeError.Subject).
	Node Node

	In, Out RecType // accepted / produced variants (bottom-up signature)

	BoxSig     *BoxSignature // box only
	Filter     *FilterSpec   // filter only
	Patterns   []Pattern     // sync only: the join patterns
	Exit       *Pattern      // star only: the exit pattern
	Tag        string        // split only: the index tag
	Uncapped   bool          // split only: SessionSplit (width-fold exempt)
	HiddenTags []string      // hide only: tags deleted from passing records

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
// branches of one parallel, star or split site and the site's output: the
// one merge queue all its branches share — buffer+mergeQueueSlack frames of
// up to `batch` items — plus the frame the merger is consuming.
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

// FlowIn returns the union of variants the compile-time shape-flow pass saw
// entering the node at path, and whether the pass visited that path at all.
// An unvisited path means the node is unreachable under the analysed input
// type; a visited path with zero variants means it was entered only with an
// empty variant set (e.g. a split operand behind a total missing-tag
// rejection).
func (p *Plan) FlowIn(path string) ([]Variant, bool) {
	if p.facts == nil {
		return nil, false
	}
	return p.facts.variants(p.facts.in, path)
}

// FlowOut is FlowIn for the variants leaving the node.  For a star node the
// out set is the exit set: variants that satisfy the exit pattern and leave
// the chain.
func (p *Plan) FlowOut(path string) ([]Variant, bool) {
	if p.facts == nil {
		return nil, false
	}
	return p.facts.variants(p.facts.out, path)
}

// FlowExact reports whether every flow visit delivered an exact variant set
// *to* path (input-side exactness).  Downstream of a synchrocell (whose
// merged output depends on runtime contents) or after variant-set
// truncation the recorded sets are approximate, and findings derived from
// them should be presented as imprecise.  Unvisited paths report true;
// callers reasoning about unreached nodes should consult the nearest
// visited ancestor.
func (p *Plan) FlowExact(path string) bool {
	if p.facts == nil {
		return false
	}
	return !p.facts.inexact[path]
}
