package core

import "fmt"

// Stages, segments, grouping.
//
// A part per stage would pay a frame hop and a wakeup per stage per frame, the
// per-component cost the S-Net vs CnC evaluation (arXiv:1305.7167) finds
// S-Net's overhead in.  So parts are segments: runs of stages on one goroutine,
// depth-first, parking nothing between stages.  A stage is a filter, a tap, a
// synchrocell, a box not pinned wider than one call at a time — and, at a
// position a dispatcher steps (a parallel branch, a capped split's operand, a
// non-deterministic star's), a non-deterministic parallel or capped split
// whose every branch is one segment (fanStage): one goroutine per fan-out
// tree.  The root spine keeps its dispatchers, whose merge queues buffer a
// burst, but in a one-shot run (oneShot).  Grouping is decided at Compile
// (spineCutter; WithFusion(false): none).  Once a box of a segment must run
// concurrently (boxengine.go), the segment runs as its cut — that box and
// each stage dispatcher above it parts of their own (segment.cut) — from the
// start or from the next record on, state and all (resume).

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
	solo() *segment // the stage's segment of one
}

// flattenSerial appends the serial spine of n to dst in pipeline order.
func flattenSerial(n Node, dst []Node) []Node {
	if s, ok := n.(*serialNode); ok {
		return flattenSerial(s.b, flattenSerial(s.a, dst))
	}
	return append(dst, n)
}

// runner is one part of a pipeline: a node, or a segment of stages.
type runner interface {
	run(env *runEnv, in *streamReader, out *streamWriter)
}

// spineCutter cuts every position of a tree once, a node instance at several
// positions too; its stages, flattened into other positions' spines, can sit
// in several segments (TestSharedChainOnTwoSpines).
type spineCutter struct {
	fuse   bool
	seen   map[Node]bool
	spines cuts
	groups []FusionGroup
}

// cutSpines computes a plan's grouping: every position's parts, and the
// fusion groups for the topology report, inner positions first.
func cutSpines(root Node, fuse bool) (cuts, []FusionGroup) {
	c := &spineCutter{fuse: fuse, seen: map[Node]bool{}, spines: cuts{}}
	c.place(root, false)
	return c.spines, c.groups
}

// oneShot is what a caller holding all its input and reading all its output
// runs (RunUntil): the root cut with its spine sites as stages, as if a
// dispatcher stepped it, when that is one segment — no merge queue buffers a
// burst for a concurrent reader — else the root.  It adds no fusion group: a
// root whose plain cut fuses a run of stages beside a site keeps its parts.
func (c *spineCutter) oneShot(root Node) runner {
	if s := c.spines.body(root); s != nil {
		return s
	}
	var stages []stage
	for _, p := range c.spines[root] {
		s, _ := p.(*segment)
		if n, ok := p.(Node); ok && c.fuse {
			if st := c.stage(n, true); st != nil {
				s = st.solo()
			}
		}
		if s == nil || s.label != "" {
			return root
		}
		stages = append(stages, s.stages...)
	}
	s := segmentOf(stages)
	return &s
}

// place cuts the position n heads, nested if a dispatcher steps it.
func (c *spineCutter) place(n Node, nested bool) {
	if c.seen[n] {
		return
	}
	c.seen[n] = true
	nodes := flattenSerial(n, nil)
	for _, s := range nodes {
		switch s := s.(type) {
		case *parallelNode:
			for _, b := range s.branches {
				c.place(b, true)
			}
		case *starNode:
			c.place(s.operand, !s.det)
		case *splitNode:
			c.place(s.operand, !s.uncapped)
		}
	}
	c.spines[n] = c.cut(nodes, nested)
}

// cut groups one flattened pipeline into its parts, and is the only caller of
// the grouping rule: each maximal run of stages is a segment — a lone stage
// its own segment of one, several a named one, a fusion group — and every
// other node a part of its own, as is every node with fusion off.
func (c *spineCutter) cut(nodes []Node, nested bool) []runner {
	stages := make([]stage, len(nodes))
	for i := 0; c.fuse && i < len(nodes); i++ {
		stages[i] = c.stage(nodes[i], nested)
	}
	parts := make([]runner, 0, len(nodes))
	for i, j := 0, 1; i < len(nodes); i, j = j, j+1 {
		for stages[i] != nil && j < len(nodes) && stages[j] != nil {
			j++
		}
		switch {
		case stages[i] == nil:
			parts = append(parts, nodes[i])
			continue
		case j == i+1:
			parts = append(parts, stages[i].solo())
			continue
		}
		g := FusionGroup{Name: fmt.Sprintf("fused#%d", fusedSeq.Add(1))}
		for _, n := range nodes[i:j] {
			g.Members = append(g.Members, n.name())
		}
		s := segmentOf(stages[i:j])
		s.label, s.kRecords, s.kApplied = g.Name, "fused."+g.Name+".records", "fused."+g.Name+".applied"
		parts, c.groups = append(parts, &s), append(c.groups, g)
	}
	return parts
}

// stage is the grouping rule: n as a stage, or nil.
func (c *spineCutter) stage(n Node, nested bool) stage {
	var branches []Node
	switch n := n.(type) {
	case *identityNode, *filterNode, *syncNode:
		return n.(stage)
	case *boxNode:
		if n.workers <= 1 {
			return n
		}
	case *parallelNode:
		if !n.det && nested {
			branches = n.branches
		}
	case *splitNode:
		if !n.det && !n.uncapped && nested {
			branches = []Node{n.operand}
		}
	}
	if branches == nil {
		return nil
	}
	s := &fanStage{n: n.(site)}
	s.seg.stages = []stage{s}
	for _, b := range branches {
		body := c.spines.body(b)
		if body == nil {
			return nil
		}
		s.seg.boxes = append(s.seg.boxes, body.boxes...) // its branches' (segmentOf)
	}
	return s
}

// fanStage is a dispatcher run as a stage, its site's fanout held state
// (held.fan).  A split's close protocol runs in the step, so an
// acknowledgement follows the replica's last record by construction.
type fanStage struct {
	n site
	lone
}

func (s *fanStage) step(x *segmentRun, i int, rec *Record) (*Record, bool) {
	h := &x.held[i]
	if h.fan == nil {
		h.fan = s.n.start(x.env)
	}
	h.fan.x, h.fan.at, h.fan.chain = x, i+1, &x.stepped
	return nil, h.fan.inst.dispatch(rec)
}

// cuts are every position's parts.  body is the segment a dispatcher steps
// for branch n — n's cut, when that is one segment — or nil.
type cuts map[Node][]runner

func (c cuts) body(n Node) *segment {
	if parts := c[n]; len(parts) == 1 {
		s, _ := parts[0].(*segment)
		return s
	}
	return nil
}

// segment is a run of stages executed on one goroutine.  Like a node it is a
// blueprint; what one execution needs lives in its segmentRun.
type segment struct {
	stages []stage
	boxes  []*boxNode // those not pinned to one call at a time
	// A fused segment has a name and counts the records it takes in and the
	// steps it applies; a segment of one or of a cut has neither.
	label              string
	kRecords, kApplied string
}

func segmentOf(stages []stage) segment {
	s := segment{stages: stages}
	for _, st := range stages {
		switch st := st.(type) {
		case *boxNode:
			if st.workers != 1 {
				s.boxes = append(s.boxes, st)
			}
		case *fanStage:
			s.boxes = append(s.boxes, st.seg.boxes...)
		}
	}
	return s
}

// concurrent reports whether one of the segment's boxes must run
// concurrently in this run: then the segment runs as its cut.
func (s *segment) concurrent(env *runEnv) bool {
	for _, b := range s.boxes {
		if b.concurrent(env) {
			return true
		}
	}
	return false
}

// cut is the hand-over rule: the pipeline s runs as once some of its boxes
// must run concurrently — each such box a part in concurrent mode, each stage
// dispatcher above one a site with its merger as x left it, each run of stages
// between them a segment with x's state.  A box the engine's verdict put
// there counts as escalated.
func (s *segment) cut(env *runEnv, x *segmentRun) []runner {
	var parts []runner
	between := func(i, j int) {
		if i < j {
			sub := segmentOf(s.stages[i:j])
			parts = append(parts, &segmentRun{env: env, seg: &sub, state: x.state[i:j], held: x.held[i:j]})
		}
	}
	from := 0
	for i, st := range s.stages {
		var part runner
		switch st := st.(type) {
		case *boxNode:
			if !st.concurrent(env) {
				continue
			}
			if _, auto := st.width(env); auto {
				env.stats.Add(st.keys.escalated, 1)
			}
			part = wide{st}
		case *fanStage:
			if !st.seg.concurrent(env) {
				continue
			}
			part = st.n
			if f := x.held[i].fan; f != nil {
				part = f
			}
		default:
			continue
		}
		between(from, i)
		parts, from = append(parts, part), i+1
	}
	between(from, len(s.stages))
	return parts
}

// wide is a box running concurrently, a part of its own.
type wide struct{ b *boxNode }

func (w wide) run(env *runEnv, in *streamReader, out *streamWriter) {
	defer out.close()
	w.b.runConcurrent(env, in, out)
}

// lone is what makes a stage a node: embedded in a stage's node, it is the
// segment of that one stage, and its run the node's run.
type lone struct{ seg segment }

func (l *lone) alone(s stage)  { l.seg = segmentOf([]stage{s}) }
func (l *lone) solo() *segment { return &l.seg }

func (l *lone) run(env *runEnv, in *streamReader, out *streamWriter) { l.seg.run(env, in, out) }

// run is one execution of s on a goroutine of its own (segmentRun.run).
func (s *segment) run(env *runEnv, in *streamReader, out *streamWriter) {
	s.begin(env, out).run(env, in, out)
}

// run is an execution on a goroutine of its own: out is flushed whenever in
// runs dry, and the execution continues as its cut (resume) when it must.
func (x *segmentRun) run(env *runEnv, in *streamReader, out *streamWriter) {
	x.out = out
	in.autoFlush(out)
	handOver := x.loop(in)
	x.front.drain()
	if !handOver {
		out.close()
		return
	}
	in.onIdle = in.onIdle[:0] // the parts register the writers they own
	x.resume(in)
}

// loop is the one receive loop of every sequential leaf.  The execution ends
// with it (end) unless, between records, one of its boxes must run
// concurrently: then it returns true, folded.  The run's context is looked at
// once per record here, because nothing else need: a stage that emits nothing
// never meets a stream, and a receive that finds a frame waiting does not look.
func (x *segmentRun) loop(in *streamReader) bool {
	for !x.seg.concurrent(x.env) {
		rec, ok := x.recv(in)
		if ok {
			ok = x.take(rec)
		}
		if !ok || ctxDone(x.env.ctx) {
			x.end()
			in.Discard() // nothing to detach from an input read to its end
			return false
		}
	}
	x.fold()
	return true
}

// resume is the hand-over wherever x ran: x goes on, reading in, as its cut.
func (x *segmentRun) resume(in *streamReader) {
	runParts(x.env, x.seg.cut(x.env, x), in, x.out)
}

// segmentRun is one execution of a segment: the output stream and one state
// slot per stage, reused from record to record so a warm segment allocates
// nothing.  A dispatcher steps all branches of one body through one (exec).
type segmentRun struct {
	env    *runEnv
	seg    *segment
	out    *streamWriter
	state  []stageState
	held   []held        // the held state of the branch x steps: its own, or one bound to it
	state2 [2]stageState // state's backing for a segment of one or two
	held4  [4]held       // held's, for up to four: a one-shot root's segment is often longer
	// front is the execution's arena front (arena.go).  A dispatcher chains
	// the executions it has to fold through next, as x its stage dispatchers'.
	front    arenaFront
	next     *segmentRun
	listed   bool
	stepped  *segmentRun
	up       *fanout // the stage dispatcher stepping x: what leaves x goes on from it
	branches int64   // begun on x since its last fold, each an instance of its boxes
	// A named segment counts the records it takes in and the steps applied.
	records, applied tally
}

// stageState is what one stage keeps from record to record in one execution:
// buffers and counters.  The slots are per stage, not per segment, because
// steps nest: a box in the middle of its emissions is still reading its
// arguments while a box further down binds its own.
type stageState struct {
	// shape is the layout of the stage's latest record and box or filter its
	// node's program for it: the one-entry front of the node's shape memo,
	// so a stream of one shape finds its program by a pointer compare.
	shape  *shape
	box    *boxProg
	filter *filterProg
	em     Emitter   // box: the emitter every invocation is handed
	args   []any     // box: the argument buffer
	outs   []*Record // filter: backing for the outputs of one application
	// box: "calls", "emitted", "instances"; filter: "applied"; synchrocell: "fired"
	calls, emitted, applied, instances, fired tally
}

// held is what one stage of one branch keeps between its records, whichever
// execution steps them: a synchrocell's stored records, a stage dispatcher.
type held struct {
	storage []*Record  // synchrocell: the first match of each pattern, until it fires
	two     [2]*Record // storage's backing for two patterns
	fired   bool       // synchrocell: it has, and is an identity from here on
	fan     *fanout    // fanStage: the site, from its first record
}

// slots is n slots: the first n of inline if they fit, else new ones.
func slots[T any](inline []T, n int) []T {
	if n <= len(inline) {
		return inline[:n]
	}
	return make([]T, n)
}

// begin begins an execution of the segment, state its own, for one branch.
func (s *segment) begin(env *runEnv, out *streamWriter) *segmentRun {
	x := &segmentRun{env: env, seg: s, out: out, branches: 1}
	x.state, x.held = slots(x.state2[:], len(s.stages)), slots(x.held4[:], len(s.stages))
	for _, st := range s.stages {
		if b, ok := st.(*boxNode); ok {
			env.stats.SetMax(b.keys.concurrency, 1)
		}
	}
	return x
}

// end is the end-of-input hook, run on every path out of a branch: what a
// synchrocell that never fired has stored is discarded, and counted so tests
// and users can detect starved synchrocells, and what a stage dispatcher
// holds ends with its branches; then the last fold, the front drained.
func (x *segmentRun) end() {
	for i := range x.held {
		h := &x.held[i]
		for _, s := range h.storage {
			if s != nil {
				x.env.stats.Add(x.seg.stages[i].(*syncNode).kStarved, 1)
				x.front.releaseRecord(s)
			}
		}
		h.storage = nil
		if h.fan != nil {
			h.fan.finish()
		}
	}
	x.fold()
	x.front.drain()
}

// fold brings the ledger and the stages' per-record counters up to date with
// what the execution has done: before every input frame it takes — so before
// every wait for one — and on every path out (end, a hand-over).
func (x *segmentRun) fold() {
	stats := x.env.stats
	for i, st := range x.seg.stages {
		switch s := &x.state[i]; n := st.(type) {
		case *boxNode:
			s.instances.n += x.branches
			s.calls.fold(stats, n.keys.calls)
			s.emitted.fold(stats, n.keys.emitted)
			s.instances.fold(stats, n.keys.instances)
		case *filterNode:
			s.applied.fold(stats, n.kApplied)
		case *syncNode:
			s.fired.fold(stats, n.kFired)
		}
	}
	x.branches = 0
	foldChain(&x.stepped)
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

// take steps one input record through the segment; false: the run is gone.
func (x *segmentRun) take(rec *Record) bool {
	x.records.n++
	return x.push(0, rec)
}

// push hands rec to stage i and on, depth-first: one-in-one-out stages advance
// in this loop, a stage that fans out re-enters it once per record it produces
// but the last, and what leaves the last stage goes to the output stream, or
// on down the segment of the stage dispatcher stepping x — where a full stream
// blocks the sender, whichever stage that is.  It reports false when the run
// is gone (cancellation): every record the segment still owned is back in the
// arena, and the caller must stop and detach from its input.
func (x *segmentRun) push(i int, rec *Record) bool {
	for stages := x.seg.stages; i < len(stages); i++ {
		var ok bool
		if rec, ok = stages[i].step(x, i, rec); rec == nil {
			return ok
		}
	}
	if f := x.up; f != nil {
		return f.x.push(f.at, rec)
	}
	return x.out.sendRecord(rec)
}
