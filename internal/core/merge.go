package core

import (
	"math"
	"sync"
)

// The splitter/merger machinery of the three branching combinators: parallel
// composition, serial and parallel replication.  The nondeterministic variants
// (||, **, !!) merge branch outputs as records become available: "any record
// produced proceeds as soon as possible" (§4).  The deterministic ones (|, *,
// !) run the sort-record protocol: after every routed data record the splitter
// broadcasts its marker to all live branches; branches are FIFO and forward
// markers, so the k-th marker on each delimits the same input prefix; the
// merger buffers each branch's output by marker-bounded region and emits
// region t, in branch order, once every branch has delivered marker t or
// closed.  A branch created lazily joins with the current marker count.
// Markers of an enclosing deterministic site ("foreign") are broadcast and
// merged the same way, so inner sites are order-transparent to outer ones.
// Markers are flush barriers (stream.go): the protocol is live at any B.
//
// A branch has no output stream: its last node's writer ships every frame onto
// the site's one merge queue (mux) tagged with the branch, and closing it is
// the branch's evClosed; the merger consumes whole frames, markers anywhere in
// them, and blocks on nothing but its output.  The splitter's control events
// travel on the same queue, the one multi-producer channel of the record plane
// besides the network boundary.  A branch the plan cuts into one segment
// (fuse.go) has no input stream and no goroutine either: it is a struct in the
// dispatcher's hands, which steps each routed record through the stages into
// that writer and flushes it when its own input runs dry — until a box of it
// must run concurrently: then the branch runs as its cut on goroutines of its
// own, from the start or from its next record on (route).  The identity exit
// of a star is the branch of no stages.
//
// One merger per fan-in tree.  A non-deterministic site whose output is a
// branch writer of another, no deterministic site around it, is direct
// (newFanout): no queue, no merger.  A branch in its hands writes its output;
// one it spawns gets a writer onto the same queue as the same branch, which
// the site counts before it closes its output (serve).  A site writing a plain
// stream (the root, a part before another) keeps its queue, a burst's buffer.

// branch event kinds flowing into the merger.
const (
	evRegister = iota // new branch: b, with its join mark set
	evFrame           // one frame of a branch's output
	evClosed          // branch output closed
	evMarker          // splitter announces the next marker
	evDone            // splitter finished; no further branches or markers
	evRetire          // branch input closed (close protocol); fr: its ack, if any
	evEmit            // fr's record straight to the output: an ack with no replica
)

type branchEvent struct {
	kind int
	b    *mergerBranch // evRegister, evFrame, evClosed, evRetire
	fr   frame         // evFrame payload; as a single item: evMarker's identity, evRetire's and evEmit's record
}

// mergeQueueSlack is how many frames the merge queue holds beyond the run's
// stream buffer, so the splitter's control events do not rendezvous with the
// merger even at WithBuffer(0).  MergeQueueCapacity (graph.go) prices it.
const mergeQueueSlack = 4

// branchPort is the splitter's handle to one live branch.
type branchPort struct {
	// w is the writing end of the branch's input stream — for a branch in the
	// dispatcher's own hands, which has no stream, the writer into the merger.
	w *streamWriter
	// x is a stepped branch's execution, writing w; nil for a spawned branch
	// and for the branch of no stages at all, the identity exit of a star.
	x      *segmentRun
	b      *mergerBranch // nil at a direct site
	own    *streamWriter // direct: a spawned branch's writer (fanout.writer)
	slot   int           // index in fanout.ports and in the input reader's idle list
	routed *statCell     // parallel: the held cell of the branch's routing counter
}

// fanout is the splitter half: it owns branch creation, routing and marker
// broadcast.  All methods are called from the combinator's run goroutine
// only; the writers it routes into are registered with the combinator's
// input reader so records buffered for a branch are flushed whenever the
// splitter waits for more input.
type fanout struct {
	env *runEnv
	det bool
	own marker           // det only: &own is broadcast after every routed record
	mux chan branchEvent // the merge queue: branch frames and splitter events; nil: direct
	in  *streamReader    // the combinator's input, for autoFlush wiring
	out *streamWriter    // the site's output
	// writing counts who writes out or its queue besides the dispatcher: the
	// merger, or the branch writers a direct site spawned (writer).
	writing sync.WaitGroup
	// ports lists the live branches; ports[i].w is in.onIdle[i] (nothing
	// else registers with a combinator's input), so a retired replica leaves
	// both lists at once.
	ports   []*branchPort
	markers int // global marker count broadcast so far
	// front is the dispatcher's arena front, lent to every branch it steps;
	// stepped chains those stepped since the last fold (segmentRun.next).
	front   arenaFront
	stepped *segmentRun
	// fused is the named segment last folded here, records and applied its
	// counter cells: the next execution of it begun here takes them.
	fused            *segment
	records, applied *statCell
}

// newFanout makes the site writing out: direct unless it is deterministic,
// its input can carry sort markers, or out is no branch writer.
func newFanout(env *runEnv, det bool, in *streamReader, out *streamWriter) *fanout {
	f := &fanout{env: env, det: det, in: in, out: out}
	if det || out.marked || out.fan == nil {
		f.mux = make(chan branchEvent, env.buf+mergeQueueSlack)
	}
	return f
}

// serve runs the site until both halves are done: the merger, if any, on a
// goroutine of its own, which owns out meanwhile, and here the dispatch loop —
// every data record goes to route, which reports false when the run is gone.
func (f *fanout) serve(route func(*Record) bool) {
	if f.mux != nil {
		f.writing.Add(1)
		go func() {
			defer f.writing.Done()
			if m := (&merger{f: f, out: f.out}); !m.run() {
				m.abandon()
			}
		}()
	}
	for {
		if f.in.drained() {
			f.fold()
		}
		it, ok := f.in.recv()
		switch {
		case !ok:
		case it.mk != nil: // a foreign marker crosses every branch
			ok = f.broadcast(it.mk)
		default:
			ok = route(it.rec)
		}
		if !ok {
			break
		}
	}
	f.in.Discard()
	f.finish()
	f.front.drain()
	f.writing.Wait()
	f.out.close()
}

// fold is the dispatcher's fold (arenaFront), before every input frame: the
// branches it stepped since the last fold their counters and the front they share.
func (f *fanout) fold() {
	for x := f.stepped; x != nil; x = f.stepped {
		x.fold()
		if x.seg.label != "" {
			f.fused, f.records, f.applied = x.seg, x.records.cell, x.applied.cell
		}
		f.stepped, x.next, x.listed = x.next, nil, false
	}
}

// sendEv delivers an event to the merger; false means the run is cancelled,
// and the record the event carried, if any, is back in the arena.
func (f *fanout) sendEv(e branchEvent) bool {
	if offer(f.env.ctx, f.mux, e, nil) {
		return true
	}
	e.release()
	return false
}

// release returns what an undelivered event carries to the arena.
func (e branchEvent) release() int64 { return e.fr.release() }

// addBranch registers a new branch and returns the port for routing.  With a
// body to step (runEnv.body, fuse.go) that can begin as it is, the branch
// stays in the dispatcher's hands: no input stream, no goroutine.  Otherwise
// it is n on goroutines of its own — and with neither, the identity: the
// exit path of serial replication.
func (f *fanout) addBranch(n runner, body *segment) *branchPort {
	port := &branchPort{w: f.out, slot: len(f.ports)}
	if f.mux != nil {
		port.b = &mergerBranch{join: f.markers}
		f.sendEv(branchEvent{kind: evRegister, b: port.b})
		port.w = &streamWriter{env: f.env, fan: f, branch: port.b, batch: f.env.batch, marked: f.det || f.out.marked}
	}
	if body != nil && !body.concurrent(f.env) {
		port.x = body.begin(f.env, port.w)
		port.x.front = &f.front
		if body == f.fused {
			port.x.records.cell, port.x.applied.cell = f.records, f.applied
		}
	} else if n != nil {
		out := f.writer(port)
		var inR *streamReader
		inR, port.w = newStream(f.env, f.env.buf)
		go n.run(f.env, inR, out)
	}
	f.ports = append(f.ports, port)
	f.in.autoFlush(port.w)
	return port
}

// writer is the output writer of a branch leaving the dispatcher's hands: its
// own, or at a direct site a new one onto out's queue as out's branch.
func (f *fanout) writer(port *branchPort) *streamWriter {
	if f.mux != nil {
		return port.w
	}
	f.writing.Add(1)
	port.own = &streamWriter{env: f.env, fan: f.out.fan, branch: f.out.branch, batch: f.env.batch, done: &f.writing}
	return port.own
}

// route sends a data record into a branch and, in deterministic mode, the
// per-record sort marker after it; false on cancellation.  A stepped branch
// with a box the engine has meanwhile found worth running concurrently first
// leaves the dispatcher's hands (resume): it is a spawned branch now.
func (f *fanout) route(port *branchPort, r *Record) bool {
	if x := port.x; x != nil && x.seg.concurrent(f.env) {
		if !port.w.flush() {
			releaseRecord(r)
			return false
		}
		f.fold() // x's tallies are the next goroutine's from here
		x.out = f.writer(port)
		var inR *streamReader
		inR, port.w = newStream(f.env, f.env.buf)
		port.x, f.in.onIdle[port.slot] = nil, port.w
		go x.resume(inR)
	}
	if x := port.x; x != nil {
		if !x.listed {
			x.listed, x.next, f.stepped = true, f.stepped, x
		}
		if !x.take(r) {
			return false
		}
	} else if !port.w.sendRecord(r) {
		return false
	}
	return !f.det || f.broadcast(&f.own)
}

// close ends a branch's input: a stepped branch's stages give back what they
// hold and its writer, but for the site's own, closes; a spawned one drains.
func (f *fanout) close(port *branchPort) {
	if port.x != nil {
		port.x.end()
	}
	if port.w != f.out {
		port.w.close()
	}
}

func (f *fanout) broadcast(mk *marker) bool {
	f.markers++
	if !f.sendEv(branchEvent{kind: evMarker, fr: frame{single: item{mk: mk}}}) {
		return false
	}
	for _, port := range f.ports {
		if !port.w.send(item{mk: mk}) {
			return false
		}
	}
	return true
}

// retireBranch is the splitter half of the replica close protocol: the
// branch's input closes (it drains, its output merges as usual), the port
// leaves the splitter's tables and sentinel, if non-nil, goes out strictly
// after the branch's last record — from the merger or, at a direct site, from
// the branch's writer: a spawned one's at its close, the site's after the
// stages end.  The port must not be routed to after retireBranch.
func (f *fanout) retireBranch(port *branchPort, sentinel *Record) bool {
	if port.own != nil {
		port.own.handAck(sentinel)
		sentinel = nil
	}
	f.close(port)
	last := len(f.ports) - 1
	moved := f.ports[last]
	moved.slot = port.slot
	f.ports[port.slot], f.in.onIdle[port.slot] = moved, moved.w
	f.ports[last], f.in.onIdle[last] = nil, nil
	f.ports, f.in.onIdle = f.ports[:last], f.in.onIdle[:last]
	if f.mux == nil {
		return sentinel == nil || f.emitDirect(sentinel)
	}
	return f.sendEv(branchEvent{kind: evRetire, b: port.b, fr: frame{single: item{rec: sentinel}}})
}

// emitDirect hands one record straight to the merged output — the close
// protocol's acknowledgement path when no replica exists for the key.
func (f *fanout) emitDirect(rec *Record) bool {
	if f.mux == nil {
		return f.out.sendRecord(rec) && f.out.flush()
	}
	return f.sendEv(branchEvent{kind: evEmit, fr: frame{single: item{rec: rec}}})
}

// finish closes all branch inputs and tells the merger no more branches or
// markers will appear.
func (f *fanout) finish() {
	for _, port := range f.ports {
		f.close(port)
	}
	if f.mux != nil {
		f.sendEv(branchEvent{kind: evDone})
	}
}

// mergerBranch is the merger-side view of one branch.  The splitter creates
// it (join is fixed then) and hands it over with evRegister; from there on
// only the merger touches it — the branch's writer and the splitter's port
// carry the pointer as a tag, nothing more.
type mergerBranch struct {
	join        int
	closed      bool
	settled     bool // closed, drained and acknowledged: nothing left to merge
	markersSeen int
	held        fifo[heldRecord] // buffered data, in arrival order and so by region
	sentinel    *Record          // close protocol: emit after the last record
}

// heldRecord is a buffered record and the marker region it belongs to.
type heldRecord struct {
	rec    *Record
	region int
}

// lastGlobalMarker returns the global number of the latest marker this
// branch has delivered.
func (b *mergerBranch) lastGlobalMarker() int { return b.join + b.markersSeen }

// merger is the merger half of one site: it writes merged output to out until
// the splitter is done and all branches have closed, or the run is cancelled.
type merger struct {
	f   *fanout
	out *streamWriter
	// branches are the registered branches in registration order — the
	// fixed branch order of deterministic emission.  Settled ones are
	// compacted away (register), so a long-lived site holds entries for its
	// live branches only.  A branch whose evRegister lost the cancellation
	// race in sendEv may still deliver events; the run is being abandoned,
	// so it is merged without ever being listed.
	branches []*mergerBranch
	dead     int           // settled entries still listed
	marks    fifo[*marker] // announced, not yet emitted: marker emitted+1 first
	emitted  int
	done     bool
}

// next receives from the merge queue, flushing out's pending batch before
// blocking so merged records never wait on merger idleness.
func (m *merger) next() (branchEvent, bool) {
	select {
	case e := <-m.f.mux:
		return e, true
	case <-m.f.env.ctx.Done():
		return branchEvent{}, false
	default:
	}
	if !m.out.flush() {
		return branchEvent{}, false
	}
	select {
	case e := <-m.f.mux:
		return e, true
	case <-m.f.env.ctx.Done():
		return branchEvent{}, false
	}
}

// run merges until the splitter is done and every branch has closed; false
// means the run was cancelled first.
func (m *merger) run() bool {
	for {
		e, ok := m.next()
		if !ok {
			return false
		}
		switch e.kind {
		case evRegister:
			m.register(e.b)
		case evFrame:
			if !m.frame(e.b, e.fr) {
				return false
			}
		case evMarker:
			m.marks.push(e.fr.single.mk)
			if !m.advance() {
				return false
			}
		case evClosed:
			e.b.closed = true
			if !m.advance() || !m.settle(e.b) {
				return false
			}
		case evRetire:
			// The branch settling — closed, its last region emitted — releases
			// the ack; evRetire and evClosed race, so settle checks both orders.
			e.b.sentinel = e.fr.single.rec
			if !m.settle(e.b) {
				return false
			}
		case evEmit:
			if !m.out.send(e.fr.single) {
				return false
			}
		case evDone:
			m.done = true
		}
		if m.done && m.allClosed() {
			if !m.advance() {
				return false
			}
			if m.marks.len() == 0 {
				return m.flushTails()
			}
		}
	}
}

// register lists a new branch, first dropping the settled ones once they
// are the majority — amortised constant work per branch.
func (m *merger) register(b *mergerBranch) {
	if m.dead > len(m.branches)/2 {
		live := m.branches[:0]
		for _, x := range m.branches {
			if !x.settled {
				live = append(live, x)
			}
		}
		clear(m.branches[len(live):])
		m.branches, m.dead = live, 0
	}
	m.branches = append(m.branches, b)
}

// frame merges one frame of branch b's output and returns its slab to the
// arena.  On cancellation the unread rest of the frame is released.
func (m *merger) frame(b *mergerBranch, fr frame) bool {
	if fr.batch == nil {
		return m.item(b, fr.single)
	}
	ok := true
	for i, it := range fr.batch {
		if ok = m.item(b, it); !ok {
			releaseItems(fr.batch[i+1:]...)
			break
		}
	}
	releaseFrameSlab(fr.batch)
	return ok
}

func (m *merger) item(b *mergerBranch, it item) bool {
	if it.mk != nil {
		b.markersSeen++
		return m.advance()
	}
	region := b.lastGlobalMarker() + 1
	// Nondeterministic merging forwards eagerly, but only within the
	// currently open marker region — data from later regions must wait so
	// that an enclosing deterministic combinator sees a correctly ordered
	// marker/data interleaving.  Deterministic merging always buffers,
	// emitting whole regions in branch order.
	if !m.f.det && region == m.emitted+1 {
		return m.out.send(it)
	}
	b.held.push(heldRecord{it.rec, region})
	return true
}

func (m *merger) allClosed() bool {
	for _, b := range m.branches {
		if !b.closed {
			return false
		}
	}
	return true
}

func (m *merger) regionComplete(next int) bool {
	for _, b := range m.branches {
		if b.join >= next || b.closed {
			continue
		}
		if b.lastGlobalMarker() < next {
			return false
		}
	}
	return true
}

// settle delivers a retired branch's drain acknowledgement once the branch
// has closed and none of its data remains buffered — the "strictly after the
// branch's last record" guarantee of the close protocol — and marks the
// branch as having nothing left to merge.  False on cancellation.
func (m *merger) settle(b *mergerBranch) bool {
	if !b.closed || b.held.len() != 0 {
		return true
	}
	if !b.settled {
		b.settled = true
		m.dead++
	}
	rec := b.sentinel
	b.sentinel = nil
	return rec == nil || m.out.sendRecord(rec)
}

// emitRegion emits what the branches hold of the regions up to upTo, in
// branch order, settling each branch.  On cancellation what is still held
// stays for abandon; the record in flight is the out writer's to retract.
func (m *merger) emitRegion(upTo int) bool {
	for _, b := range m.branches {
		for b.held.len() != 0 && b.held.front().region <= upTo {
			if !m.out.sendRecord(b.held.pop().rec) {
				return false
			}
		}
		if !m.settle(b) {
			return false
		}
	}
	return true
}

// advance emits all currently complete regions, each followed by its marker
// if that is foreign; false on cancellation.
func (m *merger) advance() bool {
	for m.marks.len() != 0 && m.regionComplete(m.emitted+1) {
		if !m.emitRegion(m.emitted + 1) {
			return false
		}
		m.emitted++
		if mk := m.marks.pop(); mk != &m.f.own && !m.out.send(item{mk: mk}) {
			return false
		}
	}
	return true
}

// flushTails emits data buffered after the last marker of each branch (or
// all data, in runs without any markers), in branch order, followed by any
// retired branch's drain acknowledgement.
func (m *merger) flushTails() bool { return m.emitRegion(math.MaxInt) }

// abandon releases what a cancelled merge still holds — buffered regions,
// pending acknowledgements and the frames queued for it — so the arena's
// ledger returns to zero.  (What lands after this its writer takes back:
// offer.)
func (m *merger) abandon() {
	for _, b := range m.branches {
		for b.held.len() != 0 {
			releaseRecord(b.held.pop().rec)
		}
		releaseRecord(b.sentinel)
	}
	reclaim(m.f.mux)
}

// fifo is a queue over a slice it keeps: emptied, it starts over at the front
// of its array, and before it grows it moves what it holds there, so a queue
// that keeps draining allocates nothing.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }
func (q *fifo[T]) front() T { return q.items[q.head] }

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}
