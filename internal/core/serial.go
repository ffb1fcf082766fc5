package core

// serialNode is the serial combinator A..B: the output stream of A feeds the
// input stream of B; the pair operates as a pipeline (§4).
//
// Serial folds n stages into a left-leaning spine of serialNodes; the spine
// runs flat, as one pipeline of parts with a goroutine and a bounded stream
// each.  What the parts are is the plan's decision (fuse.go): runs of stages
// sharing one goroutine, and the nodes between them that are no stage.
type serialNode struct {
	label string
	a, b  Node
}

// Serial composes nodes left to right into a pipeline — the paper's (A..B).
// It accepts any number of stages for convenience; Serial(a) is a.
func Serial(nodes ...Node) Node {
	switch len(nodes) {
	case 0:
		panic("core: Serial needs at least one node")
	case 1:
		return nodes[0]
	}
	n := nodes[0]
	for _, m := range nodes[1:] {
		n = &serialNode{label: autoName("serial"), a: n, b: m}
	}
	return n
}

func (s *serialNode) name() string   { return s.label }
func (s *serialNode) String() string { return "(" + s.a.String() + " .. " + s.b.String() + ")" }

func (s *serialNode) sig() (RecType, RecType) {
	aIn, _ := s.a.sig()
	_, bOut := s.b.sig()
	return aIn, bOut
}

func (s *serialNode) run(env *runEnv, in *streamReader, out *streamWriter) {
	runParts(env, env.spines[s], in, out)
}

// runParts runs parts as a pipeline from in to out, returning when the last
// has: each part closes its own output, so none waits for another.
func runParts(env *runEnv, parts []runner, in *streamReader, out *streamWriter) {
	// Every part gets a worker and an output stream but the last, which runs
	// here and writes out.  A part that stops early (cancellation) leaves its
	// producer blocked sending, so it discards its input itself (Node.run):
	// only the part knows when it is done with it, for a segment that hands
	// over passes it on to the first part of its cut (segmentRun.resume).
	last := len(parts) - 1
	for _, p := range parts[:last] {
		partIn := in
		midR, midW := new(stream).open(env, env.buf)
		midW.marked = out.marked // sort markers cross every part
		env.spawn(func() { p.run(env, partIn, midW) })
		in = midR
	}
	parts[last].run(env, in, out)
}
