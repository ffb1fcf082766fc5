package core

import "fmt"

// starNode is serial replication A**(pattern): a demand-driven, conceptually
// infinite chain A..A..A.. tapped before every replica; records matching the
// exit pattern leave the chain and merge into the output stream (§4).
//
// Each starNode instance is one tap point (stage dispatcher).  The chain
// unfolds lazily: the first record that does not exit instantiates the next
// replica as serial(operand, star-at-depth+1).
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
}

func newStar(label string, det bool, operand Node, exit Pattern) *starNode {
	k := "star." + label
	return &starNode{label: label, det: det, operand: operand, exit: exit,
		exits:     new(shapeMemo[boundPattern]),
		kReplicas: k + ".replicas", kDepth: k + ".depth", kOverflow: k + ".overflow"}
}

// chain is a tap's branch into the rest of the star: the next tap, run behind
// its operand as a pipeline of two parts.
type chain starNode

func (c *chain) run(env *runEnv, in *streamReader, out *streamWriter) {
	runParts(env, []runner{c.operand, (*starNode)(c)}, in, out)
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
	f := newFanout(env, n.det, in, out)
	exitPort := f.addBranch(nil, nil) // branch 0: records leaving the chain here (no stream: see addBranch)
	var chainPort *branchPort         // branch 1: operand .. star(depth+1), lazy
	var last *shape                   // the latest record's, and the exit pattern bound to it
	var exit boundPattern
	f.serve(func(rec *Record) bool {
		if sh := rec.shape; sh != last {
			var known bool
			if exit, known = n.exits.load(sh); !known {
				exit = n.exits.store(sh, n.exit.bind(sh))
			}
			last = sh
		}
		if exit.matches(rec) {
			env.trace(n.label, "exit", rec)
			return f.route(exitPort, rec)
		}
		if chainPort == nil {
			if n.depth >= env.maxDepth {
				env.error(fmt.Errorf("core: star %s: unfolding beyond depth %d; dropping %s",
					n.label, env.maxDepth, rec))
				env.stats.Add(n.kOverflow, 1)
				releaseRecord(rec) // dropped, not forwarded
				return true
			}
			env.stats.Add(n.kReplicas, 1)
			env.stats.SetMax(n.kDepth, int64(n.depth+1))
			next := chain(*n)
			next.depth++
			chainPort = f.addBranch(&next, nil)
		}
		return f.route(chainPort, rec)
	})
}
