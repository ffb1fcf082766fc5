package core

import (
	"fmt"
	"strings"
)

// parallelNode is parallel composition: incoming records are routed to the
// branch whose input type matches best; branch outputs are merged (§4).
// Note the absence of run state: networks are blueprints shared by any
// number of concurrent runs (service sessions), so even a humble rotation
// counter must live in the instance, not on the node (it used to live here,
// which was a data race between sessions; see
// TestSharedNetworkConcurrentSessions).
type parallelNode struct {
	label    string
	det      bool
	branches []Node

	// The routing counters' keys, per branch and for dropped records, built
	// once at construction: every instance looks its cells up by them.
	branchKeys  []string
	kUnroutable string

	// table is the node's dispatch table — a pure function of the branch
	// list (accepted types and guards), never of a run, so it is built with
	// the node and shared by every plan and run.
	table *routeTable
}

// Parallel builds the nondeterministic parallel combinator (A||B); it
// accepts two or more branches.  Records are routed by best match of the
// record's type against the branch input types; outputs merge as soon as
// they are produced.
func Parallel(branches ...Node) Node {
	return newParallel(autoName("parallel"), false, branches)
}

// ParallelDet builds the deterministic parallel combinator (A|B): routing is
// identical, but the merged output preserves the causal order of the inputs
// (outputs of input n precede outputs of input n+1), and ties in match score
// resolve to the leftmost branch.
func ParallelDet(branches ...Node) Node {
	return newParallel(autoName("parallel"), true, branches)
}

func newParallel(label string, det bool, branches []Node) *parallelNode {
	if len(branches) < 2 {
		panic("core: parallel composition needs at least two branches")
	}
	keys := make([]string, len(branches))
	for i := range branches {
		keys[i] = fmt.Sprintf("parallel.%s.branch%d", label, i)
	}
	return &parallelNode{label: label, det: det, branches: branches,
		branchKeys: keys, kUnroutable: "parallel." + label + ".unroutable",
		table: buildRouteTable(det, branches)}
}

func (n *parallelNode) name() string { return n.label }

func (n *parallelNode) String() string {
	op := " || "
	if n.det {
		op = " | "
	}
	parts := make([]string, len(n.branches))
	for i, b := range n.branches {
		parts[i] = b.String()
	}
	return "(" + strings.Join(parts, op) + ")"
}

func (n *parallelNode) sig() (RecType, RecType) {
	var in, out RecType
	for _, b := range n.branches {
		bi, bo := b.sig()
		in = in.Union(bi)
		out = out.Union(bo)
	}
	return in, out
}

func (n *parallelNode) run(env *runEnv, in *streamReader, out *streamWriter) {
	n.start(env).run(env, in, out)
}

// parallelRun is one instance of a parallel: its fanout and routing state.
type parallelRun struct {
	fanout
	n       *parallelNode
	byIndex []*branchPort // a branch exists from the first record routed to it
	state   routing       // the tie rotation and the latest shape's entry (route.go)
}

func (n *parallelNode) start(env *runEnv) *fanout {
	r := &parallelRun{n: n, byIndex: make([]*branchPort, len(n.branches))}
	r.fanout = fanout{env: env, det: n.det, inst: r}
	return &r.fanout
}

func (r *parallelRun) dispatch(rec *Record) bool {
	n, env := r.n, r.env
	chosen := n.table.dispatch(rec, &r.state)
	if chosen < 0 {
		env.error(&NoRouteError{
			Net:      n.label,
			Record:   rec.String(),
			Shape:    rec.Labels(),
			Branches: n.table.accept,
		})
		env.stats.Add(n.kUnroutable, 1)
		releaseRecord(rec) // dropped, not forwarded
		return true
	}
	port := r.byIndex[chosen]
	if port == nil {
		port = r.addBranch(n.branches[chosen], env.spines.body(n.branches[chosen]))
		r.byIndex[chosen] = port
	}
	env.stats.held(&port.routed, n.branchKeys[chosen]).Add(1)
	return r.route(port, rec)
}
