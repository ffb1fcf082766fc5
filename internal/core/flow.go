package core

// Shape-flow analysis: the type analysis of Compile (§4: "type inference …
// takes full account of subtyping and flow inheritance").
//
// The pass propagates a finite set of record shapes (variants) through the
// GraphNode tree the compile walk built, starting from the network's inferred
// or declared input type, mirroring what the runtime does to records: boxes
// consume their signature and attach unconsumed labels by flow inheritance,
// filters rewrite matching shapes, parallel composition routes each shape to
// the branches that could win best-match dispatch, serial replication
// iterates its operand to a fixpoint, parallel replication requires the index
// tag.  What it sees entering and leaving a node it unions into the node
// itself (GraphNode.FlowIn/FlowOut/Visited/Inexact): a star operand is flowed
// once per fixpoint round, and every round lands on the same node.
//
// Because shapes are propagated exactly, failures the pass discovers are
// definite for records within the analysed input type: a shape rejected by
// a box, a shape matching no parallel branch, a shape without a split's
// index tag, a parallel branch no shape ever reaches.  Two constructs make
// the set approximate — synchrocells (their merged output depends on stored
// record contents) and variant-set truncation at maxFlowVariants — after
// which findings downgrade to warnings instead of errors.

// maxFlowVariants bounds the variant set at any point of the analysis; a
// network that exceeds it (unbounded label growth through a star, usually)
// is analysed approximately instead of looping forever.
const maxFlowVariants = 128

// A variant set is an insertion-ordered slice holding no two equal variants.
func hasVariant(set []Variant, v Variant) bool {
	for _, w := range set {
		if w.Equal(v) {
			return true
		}
	}
	return false
}

func addVariant(set []Variant, v Variant) []Variant {
	if hasVariant(set, v) {
		return set
	}
	return append(set, v)
}

func addVariants(set, vs []Variant) []Variant {
	for _, v := range vs {
		set = addVariant(set, v)
	}
	return set
}

// flowRoot runs the shape-flow pass from the given input type and settles
// the deferred parallel-branch reachability findings.
func (c *compiler) flowRoot(g *GraphNode, input RecType) {
	c.flow(g, addVariants(nil, input), true)
	c.finishParallel()
}

// flow propagates the input variants through the node at g, returning the
// output variants and whether the analysis is still exact, and leaves on g
// what this visit saw.
func (c *compiler) flow(g *GraphNode, in []Variant, exact bool) ([]Variant, bool) {
	g.Visited = true
	g.FlowIn = addVariants(g.FlowIn, in)
	if !exact {
		// Input-side exactness only: a node whose *own* output is
		// approximate (a synchrocell) still received an exact input, and
		// verdicts about what reaches the node should say so.
		g.Inexact = true
	}
	out, e := c.flowNode(g, in, exact)
	g.FlowOut = addVariants(g.FlowOut, out)
	return out, e
}

// flowNode dispatches on the node kind.
func (c *compiler) flowNode(g *GraphNode, in []Variant, exact bool) ([]Variant, bool) {
	switch n := g.Node.(type) {
	case *boxNode:
		return c.flowBox(g, n, in, exact), exact
	case *filterNode:
		return flowFilter(n, in), exact
	case *identityNode:
		return in, exact
	case *syncNode:
		// A synchrocell's merged output carries the union of its stored
		// records' labels, which depend on runtime contents; approximate
		// with the pattern union and pass-through, and drop exactness.
		merged := Variant{}
		for _, p := range n.patterns {
			merged = merged.Union(p.Variant)
		}
		return addVariant(addVariants(nil, in), merged), false
	case *serialNode:
		mid, e := c.flow(g.Children[0], in, exact)
		return c.flow(g.Children[1], mid, e)
	case *parallelNode:
		return c.flowParallel(g, n, in, exact)
	case *starNode:
		return c.flowStar(g, n, in, exact)
	case *splitNode:
		passed := make([]Variant, 0, len(in))
		for _, v := range in {
			if !v.Has(Tag(n.tag)) {
				c.typeError(exact, ErrCodeMissingTag, g.Path, n, v,
					"records of variant %s reach split %s without its index tag <%s>",
					v, n.label, n.tag)
				continue
			}
			passed = append(passed, v)
		}
		return c.flow(g.Children[0], passed, exact)
	}
	// Unknown node kind: give up on exactness rather than guess.
	return in, false
}

// flowBox applies a box's signature and flow inheritance to each incoming
// variant; shapes that cannot satisfy the signature are definite rejects.
func (c *compiler) flowBox(g *GraphNode, n *boxNode, in []Variant, exact bool) []Variant {
	consumed := n.consumed
	var out []Variant
	for _, v := range in {
		if !consumed.SubsetOf(v) {
			c.typeError(exact, ErrCodeBoxReject, g.Path, n, v,
				"records of variant %s reach box %s but do not satisfy its signature %s",
				v, n.label, n.boxSig)
			continue
		}
		for _, tuple := range n.boxSig.Out {
			out = addVariant(out, flowInherit(v, consumed, tuple...))
		}
	}
	return out
}

// flowFilter rewrites matching variants through the filter's output
// specifiers (with flow inheritance of unconsumed labels); non-matching
// variants forward unchanged, and a guarded pattern may do either.
func flowFilter(n *filterNode, in []Variant) []Variant {
	pat := n.spec.Pattern
	var out []Variant
	for _, v := range in {
		if !pat.Variant.SubsetOf(v) {
			out = addVariant(out, v) // runtime forwards unmatched records unchanged
			continue
		}
		if pat.Guard != nil {
			out = addVariant(out, v) // the guard may fail at runtime
		}
		for _, items := range n.spec.Outputs {
			out = addVariant(out, flowInherit(v, pat.Variant, itemLabels(items)...))
		}
	}
	return out
}

// parReach is what reaches one parallel node's branches over the whole flow.
// A star operand is flowed iteratively and a node instance may stand at
// several graph positions, so a branch is judged across all of them — keyed by
// the node, not the position — and only once the flow is done (finishParallel).
type parReach struct {
	at      *GraphNode  // the first position flowed, where its findings are reported
	in      [][]Variant // per branch, every variant ever routed to it
	fed     bool        // some variant reached the combinator at all
	inexact bool        // some visit came with an approximate variant set
}

// flowParallel routes each variant to every branch best-match dispatch
// could select for it and recurses into each branch with the variants it
// receives.  The routing is strictly per call — the second occurrence of a
// shared node must flow its variants downstream even if the first already saw
// them — while reachability accumulates in the node's parReach.
func (c *compiler) flowParallel(g *GraphNode, n *parallelNode, in []Variant, exact bool) ([]Variant, bool) {
	r := c.par[n]
	if r == nil {
		r = &parReach{at: g, in: make([][]Variant, len(n.branches))}
		c.par[n] = r
		c.parOrder = append(c.parOrder, r)
	}
	r.inexact = r.inexact || !exact
	perBranch := make([][]Variant, len(n.branches))
	for _, v := range in {
		r.fed = true
		winners := possibleWinners(n.table, v, n.det)
		if len(winners) == 0 {
			c.typeError(exact, ErrCodeNoRoute, g.Path, n, v,
				"records of variant %s match no branch of %s (branch types: %v)",
				v, n.label, n.table.accept)
			continue
		}
		for _, w := range winners {
			r.in[w] = addVariant(r.in[w], v)
			perBranch[w] = addVariant(perBranch[w], v)
		}
	}
	var out []Variant
	stillExact := exact
	for i, ch := range g.Children {
		if len(perBranch[i]) == 0 {
			continue
		}
		bo, e := c.flow(ch, perBranch[i], exact)
		stillExact = stillExact && e
		out = addVariants(out, bo)
	}
	return out, stillExact
}

// finishParallel settles branch reachability after the whole network has
// been flowed: a branch of a fed parallel combinator that received no
// variant is unreachable for the analysed input type.  If any call reached
// the node with an approximate variant set (downstream of a synchrocell,
// or after truncation), the variants that would reach the branch may have
// been dropped, so the finding downgrades to a warning like every other
// inexact one.
func (c *compiler) finishParallel() {
	for _, r := range c.parOrder {
		if !r.fed {
			continue // the combinator itself is unreached; reported upstream
		}
		n := r.at.Node.(*parallelNode)
		for i, reached := range r.in {
			if len(reached) > 0 {
				continue
			}
			branch := r.at.Children[i]
			c.typeError(!r.inexact, ErrCodeUnreachable, branch.Path, branch.Node, nil,
				"branch %d of %s (accepted type %v) is unreachable: no variant of the input type routes to it",
				i, n.label, n.table.accept[i])
		}
	}
}

// possibleWinners returns, ascending, every branch best-match dispatch
// could select for a record of the given shape under some outcome of the
// guarded branches' guards (and, for nondeterministic combinators, of tie
// rotation).
func possibleWinners(t *routeTable, shape Variant, det bool) []int {
	n := len(t.accept)
	score := make([]int, n)
	guarded := make([]bool, n)
	for i := range score {
		score[i] = -1
	}
	for i, st := range t.static {
		if st == nil {
			continue
		}
		for _, w := range st {
			if len(w) > score[i] && w.SubsetOf(shape) {
				score[i] = len(w)
			}
		}
	}
	for _, g := range t.gb {
		guarded[g.idx] = true
		if g.pattern.Variant.SubsetOf(shape) {
			score[g.idx] = len(g.pattern.Variant)
		}
	}
	var winners []int
	for b := 0; b < n; b++ {
		if score[b] < 0 {
			continue
		}
		ok := true
		for j := 0; j < n && ok; j++ {
			if j == b || guarded[j] {
				continue // a guarded competitor may be off
			}
			if det && j < b {
				// Deterministic ties resolve leftmost: an earlier branch
				// scoring at least as high always wins.
				if score[j] >= score[b] {
					ok = false
				}
			} else if score[j] > score[b] {
				ok = false
			}
		}
		if ok {
			winners = append(winners, b)
		}
	}
	return winners
}

// flowStar iterates the star's dispatcher to a fixpoint: variants matching
// the exit pattern leave, the rest feed the operand, whose outputs re-enter
// the dispatcher.
func (c *compiler) flowStar(g *GraphNode, n *starNode, in []Variant, exact bool) ([]Variant, bool) {
	var exits, seen []Variant
	frontier := in
	for len(frontier) > 0 {
		var toOperand []Variant
		for _, v := range frontier {
			if hasVariant(seen, v) {
				continue
			}
			seen = append(seen, v)
			if n.exit.Variant.SubsetOf(v) {
				exits = addVariant(exits, v)
				if n.exit.Guard == nil {
					continue // definitely exits
				}
				// A guarded exit may fail; the record then enters the chain.
			}
			toOperand = append(toOperand, v)
		}
		if len(toOperand) == 0 {
			break
		}
		if len(seen) > maxFlowVariants {
			c.warnf(g.Path, "star %s: variant set exceeded %d during analysis; results are approximate",
				n.label, maxFlowVariants)
			exact = false
			break
		}
		opOut, e := c.flow(g.Children[0], toOperand, exact)
		exact = e
		frontier = opOut
	}
	return exits, exact
}
