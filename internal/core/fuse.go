package core

import "sync/atomic"

// Stages, segments, grouping.
//
// The serial combinator runs as a pipeline: one goroutine per part and one
// bounded stream between neighbours (serial.go).  A deep pipeline of light
// stages would pay a frame hop, a channel handoff and a scheduler wakeup per
// stage per frame; the S-Net vs CnC evaluation (arXiv:1305.7167) attributes
// most of S-Net's overhead gap to exactly this per-component communication
// cost, and S+Net argues the coordination layer should own such
// extra-functional execution decisions at compile time.  So the parts of a
// pipeline are not its stages but *segments* of them.
//
// A stage is a sequential leaf — a filter, an Observe tap, a synchrocell, a
// box invoked one call at a time — and all it has is a step: take one
// record, hand on what it produces.  A segment is a run of stages on
// one goroutine: it receives a record, steps it through stage 0, and every
// record a stage produces goes straight into the next stage's step,
// depth-first, until the last stage's records leave through the segment's
// output stream.  A step hands on all it produces but the last from inside the
// step and returns the last, so the common stage — one record in, one out —
// nests nothing: the loop carries the record from stage to stage, and only
// fan-out recurses.  Nothing is parked between stages, so backpressure from
// the output stream reaches a box in the middle of its emissions exactly as it
// would with a stream after every stage.  A stage on its own is a segment of
// one: that is the whole of filterNode.run, identityNode.run, syncNode.run
// and the box engine's inline mode.
//
// Grouping decides which stages share a goroutine, and is all that fusion
// is: Compile flattens every serial spine of the tree and cuts it into parts
// (cutSpine) — with fusion on, each maximal run of fusible stages is one
// segment; with WithFusion(false) every stage is a part of its own.  Same
// loop, different grouping.  A part of its own either way is a box of any
// width but a pinned 1 (wider it is no stage, and one nobody gave a width may
// hand over to the reordering engine at any record, which a compiled segment
// cannot follow), a synchrocell (a stage, but the one that keeps records
// between steps, which the cut leaves alone) and what is no stage at all:
// split/star (replication) and parallel (routing).  The tree is never
// rewritten: a plan is its one Node tree plus, per spine, the parts to start
// (Plan.spines), and Graph, the flow pass, internal/analysis and Start all
// read that tree.
//
// Where a goroutine is at hand a segment needs none of its own: the
// dispatcher of a split or parallel steps a replica or branch whose whole
// body is stages with every record it routes there (stepped; merge.go).  A
// box nobody gave a width counts there too, until the engine's verdict, which
// is followed by a hand-over the compiled segment has not: resume.
//
// What a segment holds.  Between stages: nothing.  Inside a stage: what the
// stage's step has in hand — the record being stepped, the outputs a
// multi-output filter has built and not yet handed on, the input record a
// box invocation is bound to and its latest emission — and what an unfired
// synchrocell has stored, which is what the same stage holds when it runs
// alone, and does not grow with what a box emits per call.  The un-fused
// pipeline holds all of that plus a stream per hop, which is why the
// occupancy analysis prices the blueprint's edges and the bound covers either
// grouping.

// FusionGroup describes one fused segment of a compiled plan: the segment's
// runtime name (its stats identity, "fused.<name>.*") and the names of the
// constituent stages in pipeline order.
type FusionGroup struct {
	Name    string   `json:"name"`
	Members []string `json:"members"`
}

// stage is a sequential leaf seen from the segment loop.
type stage interface {
	// step runs the stage on rec — stage i of x — and owns rec from there.
	// It returns the last record it produced, which the loop carries to
	// stage i+1, and nil if it produced none; whatever it produced before
	// the last it has handed on itself, from inside the step
	// (x.push(i+1, ·)).  ok is false when the run is gone: whatever the
	// stage still held is back in the arena and the segment must stop.  A
	// step keeps no record once it has returned it or handed it on — the
	// synchrocell's excepted, whose stored records end gives back.
	step(x *segmentRun, i int, rec *Record) (next *Record, ok bool)
}

// fusibleStage reports whether a node can share a segment with its
// neighbours: it must be a stage and nothing else.  Boxes qualify only when
// pinned to W == 1 (NewBoxConcurrent(..., 1)); a box without a width of its
// own (workers == 0) runs at the run's WithBoxWorkers width or starts inline
// and may go concurrent mid-stream, and is a barrier.
func fusibleStage(n Node) bool {
	switch n := n.(type) {
	case *identityNode, *filterNode:
		return true
	case *boxNode:
		return n.workers == 1
	}
	return false
}

// flattenSerial appends the serial spine of n to dst in pipeline order.
func flattenSerial(n Node, dst []Node) []Node {
	if s, ok := n.(*serialNode); ok {
		return flattenSerial(s.b, flattenSerial(s.a, dst))
	}
	return append(dst, n)
}

// cutSpine groups the stages of one serial spine into the runs that execute
// on a goroutine each.  With fuse on, every maximal run of fusible stages is
// one group; a barrier is always a group of its own, and with fuse off so is
// every stage.
func cutSpine(stages []Node, fuse bool) [][]Node {
	runs := make([][]Node, 0, len(stages))
	for i := 0; i < len(stages); {
		j := i + 1
		if fuse && fusibleStage(stages[i]) {
			for j < len(stages) && fusibleStage(stages[j]) {
				j++
			}
		}
		runs = append(runs, stages[i:j])
		i = j
	}
	return runs
}

// runner is one part of a pipeline: a node, or a segment of several.
type runner interface {
	run(env *runEnv, in *streamReader, out *streamWriter)
}

// spineCutter cuts every serial spine of a tree, once.  A node instance
// shared between graph positions (a branch reused under two combinators) is
// visited once, so it is grouped — and its segments named — once.
type spineCutter struct {
	fuse   bool
	seen   map[Node]bool
	spines map[*serialNode][]runner
	groups []FusionGroup
}

// cutSpines computes a plan's grouping: for every spine root of the tree the
// parts serialNode.run starts, and the fusion groups for the topology report
// (inner spines before the spine that contains them).
func cutSpines(root Node, fuse bool) (map[*serialNode][]runner, []FusionGroup) {
	c := &spineCutter{fuse: fuse, seen: map[Node]bool{}, spines: map[*serialNode][]runner{}}
	c.visit(root)
	return c.spines, c.groups
}

func (c *spineCutter) visit(n Node) {
	if c.seen[n] {
		return
	}
	c.seen[n] = true
	switch n := n.(type) {
	case *serialNode:
		stages := flattenSerial(n, nil)
		for _, s := range stages {
			c.visit(s)
		}
		runs := cutSpine(stages, c.fuse)
		parts := make([]runner, len(runs))
		for i, run := range runs {
			// A lone stage stays the node it is — a lone guarded filter must,
			// so best-match routing keeps seeing its guard (route.go) — and
			// its own run is the segment of one.
			if parts[i] = run[0]; len(run) > 1 {
				parts[i] = c.newSegment(run)
			}
		}
		c.spines[n] = parts
	case *parallelNode:
		for _, b := range n.branches {
			c.visit(b)
		}
	case *starNode:
		c.visit(n.operand)
	case *splitNode:
		c.visit(n.operand)
	}
}

// segment is a run of stages executed on one goroutine.  Like a node it is a
// blueprint; what one execution needs lives in its segmentRun.
type segment struct {
	stages []stage
	// A segment of several has a name and counts the records it takes in and
	// the steps it applies.  A segment of one has neither: the stage's own
	// counters say it all.
	label              string
	kRecords, kApplied string
}

// stepped returns n as a segment a dispatcher can step (merge.go) if n
// flattens to stages only, else nil.  Unlike in cutSpine a box nobody gave a
// width is one: stepped as inline mode would, clock included, until the verdict.
func stepped(env *runEnv, n Node) *segment {
	nodes := flattenSerial(n, nil)
	s := &segment{stages: make([]stage, len(nodes))}
	for i, n := range nodes {
		st, ok := n.(stage)
		if b, isBox := n.(*boxNode); isBox {
			w, auto := b.width(env)
			ok = w == 1 || auto
		}
		if !ok {
			return nil
		}
		s.stages[i] = st
	}
	return s
}

// escalated reports whether the engine has decided to run one of the
// segment's boxes concurrently in this run, which a dispatcher cannot.
func (s *segment) escalated(env *runEnv) bool {
	for _, st := range s.stages {
		if b, ok := st.(*boxNode); ok && b.escalated.Load() && b.measured(env) {
			return true
		}
	}
	return false
}

// lone is what makes a stage a node: embedded in a stage's node, it is the
// segment of that one stage, and its run the node's run.
type lone struct{ solo segment }

func (l *lone) alone(s stage) { l.solo.stages = []stage{s} }

func (l *lone) run(env *runEnv, in *streamReader, out *streamWriter) { l.solo.run(env, in, out) }

func (c *spineCutter) newSegment(run []Node) *segment {
	label := autoName("fused")
	s := &segment{
		stages:   make([]stage, len(run)),
		label:    label,
		kRecords: "fused." + label + ".records",
		kApplied: "fused." + label + ".applied",
	}
	members := make([]string, len(run))
	for i, n := range run {
		s.stages[i] = n.(stage)
		members[i] = n.name()
	}
	c.groups = append(c.groups, FusionGroup{Name: label, Members: members})
	return s
}

func (s *segment) run(env *runEnv, in *streamReader, out *streamWriter) {
	s.begin(env, out).run(env, in, out)
}

// run is an execution on a goroutine of its own: out is flushed whenever in
// runs dry.  A box nobody gave a width — always alone here — has its engine.
func (x *segmentRun) run(env *runEnv, in *streamReader, out *streamWriter) {
	defer out.close()
	x.out = out // a resumed part learns it here
	x.front = &x.own
	defer x.own.drain()
	in.autoFlush(out)
	if b, ok := x.seg.stages[0].(*boxNode); ok && b.measured(env) {
		b.engine(x, in)
	} else {
		x.loop(in, nil)
	}
}

// loop is the one receive loop of every sequential leaf.  The execution ends
// with it (end) unless leave — a box engine's verdict — says between records
// to continue elsewhere: then it returns true.  The run's context is looked at
// once per record here, because nothing else need: a stage that emits nothing
// never meets a stream, and a receive that finds a frame waiting does not look.
func (x *segmentRun) loop(in *streamReader, leave *atomic.Bool) bool {
	for leave == nil || !leave.Load() {
		rec, ok := x.recv(in)
		if ok {
			x.records.n++
			ok = x.push(0, rec)
		}
		if !ok || ctxDone(x.env.ctx) {
			x.end()
			in.Discard() // nothing to detach from an input read to its end
			return false
		}
	}
	return true
}

// segmentRun is one execution of a segment: the output stream and one state
// slot per stage, reused from record to record so a warm segment allocates
// nothing.
type segmentRun struct {
	env    *runEnv
	seg    *segment
	out    *streamWriter
	state  []stageState
	state1 [1]stageState // state's backing for a segment of one
	// front is the arena front of the goroutine the execution runs on: own on
	// a goroutine of its own, the dispatcher's when stepped (merge.go), which
	// chains the executions it has to fold through next.
	front  *arenaFront
	own    arenaFront
	next   *segmentRun
	listed bool
	// A named segment counts the records it takes in and the steps applied.
	records, applied tally
}

// stageState is what one stage keeps from record to record: buffers and
// counters — and, the synchrocell's alone, records.  The slots are per
// stage, not per segment, because steps nest: a box in the middle of its
// emissions is still reading its arguments while a box further down binds its
// own.
type stageState struct {
	// shape is the layout of the stage's latest record and box or filter its
	// node's program for it: the one-entry front of the node's shape memo,
	// so a stream of one shape finds its program by a pointer compare.
	shape   *shape
	box     *boxProg
	filter  *filterProg
	em      Emitter   // box: the emitter every invocation is handed
	args    []any     // box: the argument buffer
	outs    []*Record // filter: backing for the outputs of one application
	storage []*Record // synchrocell: the first match of each pattern, until it fires
	fired   bool      // synchrocell: it has, and is an identity from here on
	// box: "calls", "emitted"; filter: "applied"
	calls, emitted, applied tally
}

// begin begins one execution of the segment; every box stage counts as one
// sequential instance.
func (s *segment) begin(env *runEnv, out *streamWriter) *segmentRun {
	x := &segmentRun{env: env, seg: s, out: out}
	if len(s.stages) == 1 {
		x.state = x.state1[:]
	} else {
		x.state = make([]stageState, len(s.stages))
	}
	for _, st := range s.stages {
		if b, ok := st.(*boxNode); ok {
			env.stats.Add(b.keys.instances, 1)
			env.stats.SetMax(b.keys.concurrency, 1)
		}
	}
	return x
}

// end is the end-of-input hook, run on every path out of an execution: what
// a synchrocell that never fired has stored is discarded, and counted so
// tests and users can detect starved synchrocells; then the last fold.
func (x *segmentRun) end() {
	for i := range x.state {
		for _, s := range x.state[i].storage {
			if s != nil {
				x.env.stats.Add(x.seg.stages[i].(*syncNode).kStarved, 1)
				x.front.releaseRecord(s)
			}
		}
		x.state[i].storage = nil
	}
	x.fold()
}

// fold brings the ledger and the stages' per-record counters up to date with
// what the execution has done: before every input frame it takes — so before
// every wait for one — and on every path out (end, a hand-over).
func (x *segmentRun) fold() {
	stats := x.env.stats
	for i, st := range x.seg.stages {
		switch s := &x.state[i]; n := st.(type) {
		case *boxNode:
			s.calls.fold(stats, n.keys.calls)
			s.emitted.fold(stats, n.keys.emitted)
		case *filterNode:
			s.applied.fold(stats, n.kApplied)
		}
	}
	if x.seg.label != "" {
		x.records.fold(stats, x.seg.kRecords)
		x.applied.fold(stats, x.seg.kApplied)
	}
	x.front.fold()
}

// recv returns the next data record of in.  Foreign markers cross the
// segment in FIFO position: every record before one has been stepped through
// and handed to out before the marker is looked at.  ok is false at the end
// of the input and when the run is gone; the caller then detaches from in.
func (x *segmentRun) recv(in *streamReader) (*Record, bool) {
	for {
		if in.drained() {
			x.fold()
		}
		it, ok := in.recv()
		if !ok {
			return nil, false
		}
		if it.mk == nil {
			return it.rec, true
		}
		if !x.out.send(it) {
			return nil, false
		}
	}
}

// push hands rec to stage i and on, depth-first: one-in-one-out stages
// advance in this loop, a stage that fans out re-enters it once per record
// it produces but the last, and what leaves the last stage goes to the
// output stream — where a full stream blocks the sender, whichever stage
// that is.  It reports false when the run is gone (cancellation): every
// record the segment still owned is back in the arena, and the caller must
// stop and detach from its input.
func (x *segmentRun) push(i int, rec *Record) bool {
	for stages := x.seg.stages; i < len(stages); i++ {
		var ok bool
		if rec, ok = stages[i].step(x, i, rec); rec == nil {
			return ok
		}
	}
	return x.out.sendRecord(rec)
}

// resume is the one-way hand-over of a stepped branch, folded by the dispatcher
// it leaves: x continues, reading in, as the un-fused pipeline of its stages —
// each the execution it was, state and all, on a goroutine of its own.
func (x *segmentRun) resume(in *streamReader) {
	parts := make([]runner, len(x.state))
	for i := range parts {
		parts[i] = &segmentRun{env: x.env, seg: &segment{stages: x.seg.stages[i : i+1]}, state: x.state[i : i+1]}
	}
	runParts(x.env, parts, in, x.out)
}
