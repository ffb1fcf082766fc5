package core

import "fmt"

// starNode is serial replication A**(pattern): a demand-driven, conceptually
// infinite chain A..A..A.. tapped before every replica; records matching the
// exit pattern leave the chain and merge into the output stream (§4).  Each
// instance is one tap, a site (merge.go) whose chain branch — the operand, then
// the tap at depth+1 — unfolds at the first record that does not exit.  A
// non-deterministic tap steps an operand that is one segment, writing one
// stream to the next tap: an unfolded stage is one goroutine.
type starNode struct {
	label   string
	det     bool
	operand Node
	exit    Pattern
	depth   int // stage index; the entry dispatcher is depth 0
	// exits caches the exit pattern bound to each record shape; every
	// lazily-unfolded stage of the chain shares the entry dispatcher's memo
	// (the pattern is the same at every depth).
	exits *shapeMemo[boundPattern]

	// Stat keys, built once at construction and shared by every stage:
	// unfolding runs per stage and must not build strings.
	kReplicas, kDepth, kOverflow string
	statKeys
}

func newStar(label string, det bool, operand Node, exit Pattern) *starNode {
	n, k := &starNode{label: label, det: det, operand: operand, exit: exit, exits: new(shapeMemo[boundPattern])}, "star."+label
	n.kReplicas, n.kDepth, n.kOverflow = n.counter(k+".replicas"), n.mark(k+".depth"), n.counter(k+".overflow")
	return n
}

// Star builds the nondeterministic serial replicator, the paper's
// A ** (pattern): exits merge as soon as they are produced.
func Star(operand Node, exit Pattern) Node {
	return newStar(autoName("star"), false, operand, exit)
}

// StarDet builds the deterministic serial replicator A * (pattern): the
// merged exit stream preserves the causal order of the inputs.
func StarDet(operand Node, exit Pattern) Node {
	return newStar(autoName("star"), true, operand, exit)
}

// NamedStar is Star with an explicit stats label, so experiments can read
// "star.<name>.replicas" counters (used to verify the paper's unfolding
// bounds: ≤ 81 stages for a 9×9 sudoku, Fig. 1).
func NamedStar(name string, operand Node, exit Pattern) Node {
	return newStar(name, false, operand, exit)
}

// NamedStarDet is StarDet with an explicit stats label.
func NamedStarDet(name string, operand Node, exit Pattern) Node {
	return newStar(name, true, operand, exit)
}

func (n *starNode) name() string { return n.label }

func (n *starNode) String() string {
	op := " ** "
	if n.det {
		op = " * "
	}
	return "(" + n.operand.String() + op + n.exit.String() + ")"
}

func (n *starNode) sig() (RecType, RecType) {
	opIn, _ := n.operand.sig()
	in := opIn.Union(RecType{n.exit.Variant})
	// Records leave when they match the exit pattern; their type is at
	// least the pattern's variant.
	out := RecType{n.exit.Variant}
	return in, out
}

func (n *starNode) run(env *runEnv, in *streamReader, out *streamWriter) {
	n.start(env).run(env, in, out)
}

// starRun is one tap: its fanout; its branches, the exit (0, from the first
// record, no stream: see addBranch) and the chain into the tap at depth+1, next
// (1, lazy); the exit pattern bound to the latest record's shape.
type starRun struct {
	fanout
	n                   *starNode
	exitPort, chainPort *branchPort
	ports               [2]branchPort // the slab they are cut from
	next                starNode
	last                *shape
	exit                boundPattern
}

func (n *starNode) start(env *runEnv) *fanout {
	r := &starRun{n: n}
	r.fanout = fanout{env: env, det: n.det, inst: r, slab: r.ports[:]}
	return &r.fanout
}

func (r *starRun) dispatch(rec *Record) bool {
	n, env := r.n, r.env
	if r.exitPort == nil {
		r.exitPort = r.addBranch(nil, nil)
	}
	if sh := rec.shape; sh != r.last {
		var known bool
		if r.exit, known = n.exits.load(sh); !known {
			r.exit = n.exits.store(sh, n.exit.bind(sh))
		}
		r.last = sh
	}
	if r.exit.matches(rec) {
		env.trace(n.label, "exit", rec)
		return r.route(r.exitPort, rec)
	}
	if r.chainPort == nil {
		if n.depth >= env.maxDepth {
			env.error(fmt.Errorf("core: star %s: unfolding beyond depth %d; dropping %s",
				n.label, env.maxDepth, rec))
			env.stats.Add(n.kOverflow, 1)
			releaseRecord(rec) // dropped, not forwarded
			return true
		}
		env.stats.Add(n.kReplicas, 1)
		env.stats.SetMax(n.kDepth, int64(n.depth+1))
		r.next = *n
		r.next.depth++
		var body *segment // stepped by a non-deterministic tap
		if !n.det {
			body = env.spines.body(n.operand)
		}
		r.chainPort = r.addBranch(n.operand, body, &r.next)
	}
	return r.route(r.chainPort, rec)
}
