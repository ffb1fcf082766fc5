package core

import "sync"

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

// runParts runs parts as a pipeline from in to out, returning when all have.
func runParts(env *runEnv, parts []runner, in *streamReader, out *streamWriter) {
	// Every part gets a goroutine and an output stream but the last, which
	// runs here and writes out.  A part that stops early (cancellation)
	// leaves its producer blocked sending, so each part's input is discarded
	// once the part is done with it — Discard is idempotent, and does
	// nothing on a stream that was read to its end.  Wait, so that run has
	// no stragglers once it returns.
	last := len(parts) - 1
	var wg sync.WaitGroup
	wg.Add(last)
	for _, p := range parts[:last] {
		partIn := in
		midR, midW := newStream(env, env.buf)
		midW.marked = out.marked // sort markers cross every part
		go func() {
			defer wg.Done()
			p.run(env, partIn, midW)
			partIn.Discard()
		}()
		in = midR
	}
	parts[last].run(env, in, out)
	in.Discard()
	wg.Wait()
}
