package core

import (
	"fmt"
	"strings"
)

// Compile-time pipeline fusion.
//
// The serial combinator is realized at runtime as one goroutine plus one
// bounded stream per stage (serial.go), so a deep pipeline pays a frame hop,
// a channel handoff and a scheduler wakeup per stage per frame even though
// the records themselves are zero-alloc.  The S-Net vs CnC evaluation
// (arXiv:1305.7167) attributes most of S-Net's overhead gap to exactly this
// per-component communication cost, and S+Net argues the coordination layer
// should own such extra-functional execution decisions at compile time —
// which is what this pass does: Compile walks the plan graph, finds maximal
// linear chains of *fusible* stages, and replaces each chain with a single
// fusedNode that executes a flat op list per record on one goroutine, with
// no intermediate streams or frames.
//
// A stage is fusible when its run loop is a pure record-at-a-time function
// with no concurrency and no marker-sensitive state: filters, Observe taps,
// HideTags, and boxes pinned to strictly sequential invocation (W == 1).
// Everything else is a fusion barrier — boxes of any other width, pinned
// or left to the engine (an inline box may hand over to the reordering
// engine at any record, which a segment cannot), synchrocells (cross-record
// state), split/star (replication) and parallel (routing) — and survives
// untouched; fusion only ever rewrites the serial spine between barriers.
// Records crossing a fused segment ride the same copy-on-write
// shape-transition memos and slot programs as everywhere else, so the
// segment stays allocation-free in steady state (TestRecordPlaneZeroAlloc
// covers a fused deep pipeline).
//
// The rewrite is purely an execution-plan concern: Topology, Graph and the
// flow/analysis passes all keep seeing the un-fused blueprint, with the
// fusion groups reported alongside (Topology.FusionGroups), while Plan.Start
// runs the rewritten tree.

// FusionGroup describes one fused segment of a compiled plan: the segment's
// runtime name (its stats identity, "fused.<name>.*") and the names of the
// constituent stages in pipeline order.
type FusionGroup struct {
	Name    string   `json:"name"`
	Members []string `json:"members"`
}

// fusibleStage reports whether a node can join a fused segment: its run
// behavior must be a sequential per-record function.  Boxes qualify only
// when pinned to W == 1 (NewBoxConcurrent(..., 1)); a box without a width
// of its own (workers == 0) runs at the run's WithBoxWorkers width or
// starts inline and may go concurrent mid-stream, and is a barrier.
func fusibleStage(n Node) bool {
	switch n := n.(type) {
	case *identityNode, *hideNode, *filterNode:
		return true
	case *boxNode:
		return n.workers == 1
	}
	return false
}

// fuser is the state of one fusion pass.  memo maps every visited node to
// its rewritten form so a node instance shared between graph positions (a
// branch reused under two combinators) is rewritten exactly once and stays
// shared in the fused tree.
type fuser struct {
	memo   map[Node]Node
	groups []FusionGroup
	keys   []string
}

// fuseTree rewrites the blueprint for execution, collapsing every maximal
// run of >= 2 consecutive fusible stages on a serial spine into one
// fusedNode.  It returns the rewritten root (root itself when nothing
// fused), the fusion groups for the topology report, and the segments'
// per-record stat keys for Plan.Start to preregister.
func fuseTree(root Node) (Node, []FusionGroup, []string) {
	f := &fuser{memo: map[Node]Node{}}
	return f.rewrite(root), f.groups, f.keys
}

func (f *fuser) rewrite(n Node) Node {
	if m, ok := f.memo[n]; ok {
		return m
	}
	m := f.build(n)
	f.memo[n] = m
	return m
}

// build rewrites one node.  Combinators are rebuilt only when a child
// actually changed, so an unfusible subtree keeps its identity.
func (f *fuser) build(n Node) Node {
	switch n := n.(type) {
	case *serialNode:
		stages := flattenSerial(n, nil)
		changed := false
		for i, s := range stages {
			if r := f.rewrite(s); r != s {
				stages[i] = r
				changed = true
			}
		}
		fused := f.fuseChain(stages)
		if !changed && len(fused) == len(stages) {
			return n
		}
		return rebuildSerial(fused)
	case *parallelNode:
		branches := make([]Node, len(n.branches))
		changed := false
		for i, b := range n.branches {
			branches[i] = f.rewrite(b)
			changed = changed || branches[i] != b
		}
		if !changed {
			return n
		}
		// The dispatch table is rebuilt over the rewritten branches (their
		// accepted types are identical by construction, fusedNode.sig being
		// first-stage-in / last-stage-out).
		return newParallel(n.label, n.det, branches)
	case *starNode:
		op := f.rewrite(n.operand)
		if op == n.operand {
			return n
		}
		// The exit memo is a pure function of the exit pattern and is shared
		// across the unfold chain; the rewritten star keeps sharing it.
		star := *n
		star.operand = op
		return &star
	case *splitNode:
		op := f.rewrite(n.operand)
		if op == n.operand {
			return n
		}
		split := *n
		split.operand = op
		return &split
	default:
		// Leaves (boxes, filters, sync, observe, hide) are never rewritten
		// in place — they only ever move into a fusedNode via fuseChain.
		return n
	}
}

// fuseChain groups maximal runs of consecutive fusible stages.  Runs of
// length 1 stay as they are: a lone guarded filter must remain a filterNode
// so best-match routing keeps seeing its guard (route.go), and a lone stage
// gains nothing from a wrapper anyway.
func (f *fuser) fuseChain(stages []Node) []Node {
	out := make([]Node, 0, len(stages))
	run := make([]Node, 0, len(stages))
	flush := func() {
		if len(run) >= 2 {
			out = append(out, f.newFused(run))
		} else {
			out = append(out, run...)
		}
		run = run[:0]
	}
	for _, s := range stages {
		if fusibleStage(s) {
			run = append(run, s)
			continue
		}
		flush()
		out = append(out, s)
	}
	flush()
	return out
}

// flattenSerial appends the serial spine of n to dst in pipeline order.
func flattenSerial(n Node, dst []Node) []Node {
	if s, ok := n.(*serialNode); ok {
		return flattenSerial(s.b, flattenSerial(s.a, dst))
	}
	return append(dst, n)
}

// rebuildSerial refolds a stage list into the left-leaning serial spine
// Serial builds.
func rebuildSerial(stages []Node) Node {
	n := stages[0]
	for _, m := range stages[1:] {
		n = &serialNode{label: autoName("serial"), a: n, b: m}
	}
	return n
}

// Op kinds of a fused segment's slot program.
const (
	fuseOpObserve = iota
	fuseOpHide
	fuseOpFilter
	fuseOpBox
)

// fusedOp is one stage of a fused segment's op list, pre-resolved at
// compile time so the per-record loop does no interface dispatch.
type fusedOp struct {
	kind    int
	observe *identityNode
	hide    *hideNode
	filter  *filterNode
	box     *boxNode
}

// fusedNode executes a chain of fusible stages as one goroutine: per input
// record it runs the compiled op list to completion — record values moving
// by direct call, shapes by the interned transition memos — and only the
// chain's final outputs touch a stream.  It is a blueprint like every other
// node; all execution state lives in the per-run fusedExec.
type fusedNode struct {
	label  string
	stages []Node
	ops    []fusedOp
	// Per-segment stat keys, collected into Plan.fusedKeys at Compile and
	// preregistered as lock-free atomics by Start (see Stats.preregister).
	kRecords, kApplied string
}

func (f *fuser) newFused(run []Node) *fusedNode {
	label := autoName("fused")
	n := &fusedNode{
		label:    label,
		stages:   append([]Node(nil), run...),
		ops:      make([]fusedOp, len(run)),
		kRecords: "fused." + label + ".records",
		kApplied: "fused." + label + ".applied",
	}
	members := make([]string, len(run))
	for i, s := range n.stages {
		members[i] = s.name()
		switch s := s.(type) {
		case *identityNode:
			n.ops[i] = fusedOp{kind: fuseOpObserve, observe: s}
		case *hideNode:
			n.ops[i] = fusedOp{kind: fuseOpHide, hide: s}
		case *filterNode:
			n.ops[i] = fusedOp{kind: fuseOpFilter, filter: s}
		case *boxNode:
			n.ops[i] = fusedOp{kind: fuseOpBox, box: s}
		default:
			panic("core: newFused: unfusible stage " + s.name())
		}
	}
	f.groups = append(f.groups, FusionGroup{Name: label, Members: members})
	f.keys = append(f.keys, n.kRecords, n.kApplied)
	return n
}

func (n *fusedNode) name() string { return n.label }

func (n *fusedNode) String() string {
	parts := make([]string, len(n.stages))
	for i, s := range n.stages {
		parts[i] = s.String()
	}
	return "fused(" + strings.Join(parts, " .. ") + ")"
}

// sig is the chain's signature exactly as the serial spine would report it:
// first stage's input, last stage's output.  Routing tables built over a
// fused branch therefore dispatch identically to the un-fused blueprint.
func (n *fusedNode) sig(c *checker) (RecType, RecType) {
	in, _ := n.stages[0].sig(c)
	_, out := n.stages[len(n.stages)-1].sig(c)
	return in, out
}

func (n *fusedNode) run(env *runEnv, in *streamReader, out *streamWriter) {
	defer out.close()
	in.autoFlush(out)
	x := newFusedExec(env, n)
	for i := range n.ops {
		if b := n.ops[i].box; b != nil {
			// The segment is one sequential instance of each constituent box.
			env.stats.Add(b.keys.instances, 1)
			env.stats.SetMax(b.keys.concurrency, 1)
			env.stats.SetMax(b.keys.inflight, 1)
		}
	}
	for {
		it, ok := in.recv()
		if !ok {
			return
		}
		if it.mk != nil {
			// Foreign markers cross the segment in FIFO position: the
			// previous record was fully processed and shipped before this
			// marker is looked at.
			if !out.send(it) {
				in.Discard()
				return
			}
			continue
		}
		env.stats.Add(n.kRecords, 1)
		if !x.process(it.rec, out) {
			in.Discard()
			return
		}
	}
}

// fusedExec is the per-run execution state of one fused segment: the two
// swap buffers records move between as they pass from op to op, one
// buffer-mode emitter per box op, and the shared argument buffer.  All of
// it is reused across records, so a warm segment allocates nothing.
type fusedExec struct {
	env       *runEnv
	n         *fusedNode
	cur, next []*Record
	// scratch receives filter outputs before they are traced and appended
	// to next (filterProg.apply rebuilds its dst).
	scratch  []*Record
	emitters []*Emitter
	argsBuf  []any
}

func newFusedExec(env *runEnv, n *fusedNode) *fusedExec {
	x := &fusedExec{env: env, n: n, emitters: make([]*Emitter, len(n.ops))}
	maxArgs := 0
	for i := range n.ops {
		if b := n.ops[i].box; b != nil {
			x.emitters[i] = &Emitter{env: env, box: b}
			if len(b.boxSig.In) > maxArgs {
				maxArgs = len(b.boxSig.In)
			}
		}
	}
	x.argsBuf = make([]any, 0, maxArgs)
	return x
}

// process runs one input record through the whole op list and ships the
// segment's outputs.  It reports false when the run is gone (cancellation),
// in which case every record still owned by the segment has been returned
// to the arena and the caller must detach from its input.
func (x *fusedExec) process(rec *Record, out *streamWriter) bool {
	env := x.env
	x.cur = append(x.cur[:0], rec)
	applied := int64(0)
	for i := range x.n.ops {
		if len(x.cur) == 0 {
			break
		}
		op := &x.n.ops[i]
		x.next = x.next[:0]
		switch op.kind {
		case fuseOpObserve:
			o := op.observe
			for _, r := range x.cur {
				env.trace(o.label, "in", r)
				if o.fn != nil {
					o.fn(r)
				}
				x.next = append(x.next, r)
			}
			applied += int64(len(x.cur))
		case fuseOpHide:
			h := op.hide
			for _, r := range x.cur {
				for _, tag := range h.tags {
					r.DeleteTag(tag)
				}
				x.next = append(x.next, r)
			}
			applied += int64(len(x.cur))
		case fuseOpFilter:
			f := op.filter
			for _, r := range x.cur {
				env.trace(f.label, "in", r)
				if !f.matches(r) {
					env.stats.Add(f.kNomatch, 1)
					x.next = append(x.next, r)
					continue
				}
				outs, err := f.program(r.shape).apply(r, x.scratch)
				if err != nil {
					env.error(fmt.Errorf("core: filter %s: %w", f.label, err))
					env.stats.Add(f.kErrors, 1)
					releaseRecord(r) // dropped, not forwarded
					continue
				}
				env.stats.Add(f.kApplied, 1)
				applied++
				// The input was consumed: rewritten or inherited into fresh
				// outputs, never aliased.
				releaseRecord(r)
				for _, o := range outs {
					env.trace(f.label, "out", o)
					x.next = append(x.next, o)
				}
				if outs != nil {
					x.scratch = outs[:0]
				}
			}
		case fuseOpBox:
			b := op.box
			em := x.emitters[i]
			for ci, r := range x.cur {
				args, ok := b.bind(env, r, x.argsBuf)
				if !ok {
					continue
				}
				em.src, em.stopped, em.emitted = r, false, 0
				em.buf = &x.next
				b.invoke(env, args, em)
				em.src, em.buf = nil, nil
				releaseRecord(r)
				b.account(env, em)
				applied++
				if em.stopped {
					// The run was cancelled mid-invocation: reclaim every
					// record the segment still owns.
					for _, rest := range x.cur[ci+1:] {
						releaseRecord(rest)
					}
					for _, o := range x.next {
						releaseRecord(o)
					}
					x.cur, x.next = x.cur[:0], x.next[:0]
					return false
				}
			}
		}
		x.cur, x.next = x.next, x.cur
	}
	if applied > 0 {
		env.stats.Add(x.n.kApplied, applied)
	}
	for i, r := range x.cur {
		if !out.sendRecord(r) {
			// The failed record was reclaimed by the transport's cancellation
			// path; outputs never handed to it are ours.
			for _, rest := range x.cur[i+1:] {
				releaseRecord(rest)
			}
			x.cur = x.cur[:0]
			return false
		}
	}
	x.cur = x.cur[:0]
	return true
}
