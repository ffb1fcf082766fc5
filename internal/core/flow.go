package core

import "fmt"

// Shape-flow analysis: the definite-error half of Compile.
//
// The pass propagates a finite set of record shapes (variants) through the
// combinator graph, starting from the network's inferred or declared input
// type, mirroring what the runtime does to records: boxes consume their
// signature and attach unconsumed labels by flow inheritance, filters
// rewrite matching shapes, parallel composition routes each shape to the
// branches that could win best-match dispatch, serial replication iterates
// its operand to a fixpoint, parallel replication requires the index tag.
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

// varSet is an insertion-ordered set of variants keyed by their canonical
// rendering.
type varSet struct {
	keys map[string]bool
	list []Variant
}

func newVarSet() *varSet { return &varSet{keys: map[string]bool{}} }

// add inserts v, reporting whether it was new.
func (s *varSet) add(v Variant) bool {
	k := v.String()
	if s.keys[k] {
		return false
	}
	s.keys[k] = true
	s.list = append(s.list, v)
	return true
}

func (s *varSet) size() int { return len(s.list) }

// flowFacts is the shape-flow pass's per-path trace: for every node path the
// pass visited, the union of variants that entered (in) and left (out) it
// across all visits, and whether any visit had already lost exactness
// (downstream of a synchrocell or after variant-set truncation).  A path
// absent from in was never visited at all — its node is unreachable under
// the analysed input type.
type flowFacts struct {
	in, out map[string]*varSet
	inexact map[string]bool
}

func newFlowFacts() *flowFacts {
	return &flowFacts{
		in:      map[string]*varSet{},
		out:     map[string]*varSet{},
		inexact: map[string]bool{},
	}
}

// record unions vs into the set at path, creating the (possibly empty)
// entry so that "visited with zero variants" is distinguishable from "never
// visited".
func (f *flowFacts) record(m map[string]*varSet, path string, vs []Variant) {
	s, ok := m[path]
	if !ok {
		s = newVarSet()
		m[path] = s
	}
	for _, v := range vs {
		s.add(v)
	}
}

// variants returns the recorded variant list at path and whether the path
// was visited.
func (f *flowFacts) variants(m map[string]*varSet, path string) ([]Variant, bool) {
	s, ok := m[path]
	if !ok {
		return nil, false
	}
	return s.list, true
}

// flowRoot runs the shape-flow pass from the given input type and settles
// the deferred parallel-branch reachability findings.
func (c *compiler) flowRoot(root Node, input RecType) {
	in := make([]Variant, 0, len(input))
	seen := newVarSet()
	for _, v := range input {
		if seen.add(v) {
			in = append(in, v)
		}
	}
	c.flow(root, in, "", true)
	c.finishParallel()
}

// flow propagates the input variants through n, returning the output
// variants and whether the analysis is still exact.  prefix is the parent
// path including its trailing separator (as in compiler.walk).
//
// Beyond computing outputs, flow records per-path reachability facts (the
// union of variants seen entering and leaving each node across every visit,
// plus whether any visit was approximate) into c.facts — the raw material of
// the post-compile liveness analysis in internal/analysis.  A star operand
// is flowed once per fixpoint iteration and shared sub-nets appear at
// several paths, so the facts are keyed by path and accumulated as unions.
func (c *compiler) flow(n Node, in []Variant, prefix string, exact bool) ([]Variant, bool) {
	path := prefix + n.name()
	c.facts.record(c.facts.in, path, in)
	if !exact {
		// Input-side exactness only: a node whose *own* output is
		// approximate (a synchrocell) still received an exact input, and
		// verdicts about what reaches the node should say so.
		c.facts.inexact[path] = true
	}
	out, e := c.flowNode(n, in, path, exact)
	c.facts.record(c.facts.out, path, out)
	return out, e
}

// flowNode dispatches on the node kind; path is the node's own path.
func (c *compiler) flowNode(n Node, in []Variant, path string, exact bool) ([]Variant, bool) {
	switch n := n.(type) {
	case *boxNode:
		return c.flowBox(n, in, path, exact), exact
	case *filterNode:
		return c.flowFilter(n, in), exact
	case *identityNode:
		return in, exact
	case *hideNode:
		out := newVarSet()
		for _, v := range in {
			out.add(flowInherit(v, n.hidden))
		}
		return out.list, exact
	case *syncNode:
		// A synchrocell's merged output carries the union of its stored
		// records' labels, which depend on runtime contents; approximate
		// with the pattern union and pass-through, and drop exactness.
		out := newVarSet()
		for _, v := range in {
			out.add(v)
		}
		merged := Variant{}
		for _, p := range n.patterns {
			merged = merged.Union(p.Variant)
		}
		out.add(merged)
		return out.list, false
	case *serialNode:
		mid, e := c.flow(n.a, in, path+"/", exact)
		return c.flow(n.b, mid, path+"/", e)
	case *parallelNode:
		return c.flowParallel(n, in, path, exact)
	case *starNode:
		return c.flowStar(n, in, path, exact)
	case *splitNode:
		passed := make([]Variant, 0, len(in))
		for _, v := range in {
			if !v.Has(Tag(n.tag)) {
				c.typeError(exact, ErrCodeMissingTag, path, n, v,
					"records of variant %s reach split %s without its index tag <%s>",
					v, n.label, n.tag)
				continue
			}
			passed = append(passed, v)
		}
		return c.flow(n.operand, passed, path+"/operand/", exact)
	}
	// Unknown node kind: give up on exactness rather than guess.
	return in, false
}

// flowBox applies a box's signature and flow inheritance to each incoming
// variant; shapes that cannot satisfy the signature are definite rejects.
func (c *compiler) flowBox(n *boxNode, in []Variant, path string, exact bool) []Variant {
	consumed := n.consumed
	out := newVarSet()
	for _, v := range in {
		if !consumed.SubsetOf(v) {
			c.typeError(exact, ErrCodeBoxReject, path, n, v,
				"records of variant %s reach box %s but do not satisfy its signature %s",
				v, n.label, n.boxSig)
			continue
		}
		for _, tuple := range n.boxSig.Out {
			out.add(flowInherit(v, consumed, tuple...))
		}
	}
	return out.list
}

// flowFilter rewrites matching variants through the filter's output
// specifiers (with flow inheritance of unconsumed labels); non-matching
// variants forward unchanged, and a guarded pattern may do either.
func (c *compiler) flowFilter(n *filterNode, in []Variant) []Variant {
	pat := n.spec.Pattern
	out := newVarSet()
	for _, v := range in {
		if !pat.Variant.SubsetOf(v) {
			out.add(v) // runtime forwards unmatched records unchanged
			continue
		}
		if pat.Guard != nil {
			out.add(v) // the guard may fail at runtime
		}
		for _, items := range n.spec.Outputs {
			out.add(flowInherit(v, pat.Variant, itemLabels(items)...))
		}
	}
	return out.list
}

// flowParallel routes each variant to every branch best-match dispatch
// could select for it, accumulating per-branch reachability (settled later
// in finishParallel) and recursing into each branch with the variants it
// receives.  A node instance may appear at several graph positions (shared
// sub-nets), so the reachability accumulator in c.parIn spans every call
// while the routing below is strictly per call — the second occurrence must
// flow its variants downstream even if the first already saw them.
func (c *compiler) flowParallel(n *parallelNode, in []Variant, path string, exact bool) ([]Variant, bool) {
	t := n.table
	sets, ok := c.parIn[n]
	if !ok {
		sets = make([]*varSet, len(n.branches))
		for i := range sets {
			sets[i] = newVarSet()
		}
		c.parIn[n] = sets
		c.parPath[n] = path
		c.parOrder = append(c.parOrder, n)
	}
	if !exact {
		c.parInexact[n] = true
	}
	perBranch := make([]*varSet, len(n.branches))
	for i := range perBranch {
		perBranch[i] = newVarSet()
	}
	for _, v := range in {
		c.parFed[n] = true
		winners := possibleWinners(t, v, n.det)
		if len(winners) == 0 {
			c.typeError(exact, ErrCodeNoRoute, path, n, v,
				"records of variant %s match no branch of %s (branch types: %v)",
				v, n.label, t.accept)
			continue
		}
		for _, w := range winners {
			sets[w].add(v)
			perBranch[w].add(v)
		}
	}
	out := newVarSet()
	stillExact := exact
	for i, b := range n.branches {
		if perBranch[i].size() == 0 {
			continue
		}
		bo, e := c.flow(b, perBranch[i].list, branchPrefix(path, i), exact)
		stillExact = stillExact && e
		for _, v := range bo {
			out.add(v)
		}
	}
	return out.list, stillExact
}

func branchPrefix(path string, i int) string {
	return fmt.Sprintf("%s/branch[%d]/", path, i)
}

// finishParallel settles branch reachability after the whole network has
// been flowed: a branch of a fed parallel combinator that received no
// variant is unreachable for the analysed input type.  If any call reached
// the node with an approximate variant set (downstream of a synchrocell,
// or after truncation), the variants that would reach the branch may have
// been dropped, so the finding downgrades to a warning like every other
// inexact one.
func (c *compiler) finishParallel() {
	for _, n := range c.parOrder {
		if !c.parFed[n] {
			continue // the combinator itself is unreached; reported upstream
		}
		for i, set := range c.parIn[n] {
			if set.size() > 0 {
				continue
			}
			t := n.table
			c.typeError(!c.parInexact[n], ErrCodeUnreachable,
				branchPrefix(c.parPath[n], i)+n.branches[i].name(), n.branches[i], nil,
				"branch %d of %s (accepted type %v) is unreachable: no variant of the input type routes to it",
				i, n.label, t.accept[i])
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
func (c *compiler) flowStar(n *starNode, in []Variant, path string, exact bool) ([]Variant, bool) {
	exits := newVarSet()
	seen := newVarSet()
	frontier := in
	for len(frontier) > 0 {
		var toOperand []Variant
		for _, v := range frontier {
			if !seen.add(v) {
				continue
			}
			if n.exit.Variant.SubsetOf(v) {
				exits.add(v)
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
		if seen.size() > maxFlowVariants {
			c.warnf(path, "star %s: variant set exceeded %d during analysis; results are approximate",
				n.label, maxFlowVariants)
			exact = false
			break
		}
		opOut, e := c.flow(n.operand, toOperand, path+"/operand/", exact)
		exact = e
		frontier = opOut
	}
	return exits.list, exact
}
