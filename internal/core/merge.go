package core

import (
	"math"
	"slices"
	"sync/atomic"
)

// The splitter/merger machinery of the branching combinators.  The
// non-deterministic ones (||, **, !!) merge branch outputs as records become
// available: "any record produced proceeds as soon as possible" (§4).  The
// deterministic ones (|, *, !) run the sort-record protocol: after every routed
// record the splitter broadcasts its marker to the live branches, which
// forward markers in FIFO position, and the merger emits region t — what each
// branch produced before its t-th marker — in branch order once every branch
// has delivered marker t or closed.  A lazily created branch joins at the
// current marker count; foreign markers are broadcast and merged the same
// way, so inner sites are order-transparent to outer ones.
//
// A branch's writer ships frames onto its site's merge queue, tagged.  A branch
// whose cut is one segment is stepped, no stream or goroutine, until a box of
// it must run concurrently (route).  One merger per fan-in tree: a
// non-deterministic site writing a branch of another, below no deterministic
// one, is direct (run).  One dispatcher per fan-out tree: a site a dispatcher
// steps is a stage (fanStage, fuse.go) until it resumes as a part (run).

// branch event kinds flowing into the merger.
const (
	evRegister = iota // new branch: b, with its join mark set
	evFrame           // one frame of a branch's output
	evClosed          // branch output closed
	evMarker          // splitter announces the next marker
	evDone            // splitter finished; no further branches or markers
)

type branchEvent struct {
	kind int
	b    *mergerBranch // evRegister, evFrame, evClosed
	fr   frame         // evFrame payload; as a single item: evMarker's identity
}

// maxPortSlab caps a split's port slabs (fanout.port), 176 bytes a port.
const maxPortSlab = 16

// mergeQueueSlack is how many frames the merge queue holds beyond the run's
// stream buffer, so the splitter's control events do not rendezvous with the
// merger even at WithBuffer(0).  MergeQueueCapacity (graph.go) prices it.
const mergeQueueSlack = 4

// branchPort is the splitter's handle to one live branch.
type branchPort struct {
	// w is the writing end of the branch's input stream — for a branch in the
	// dispatcher's own hands, which has no stream, the writer into the merger
	// (none at a stage).
	w *streamWriter
	// x is the execution a stepped branch's records go through (exec), held
	// what its stages keep; x is nil for a spawned branch and for the branch
	// of no stages at all, the identity exit of a star.
	x      *segmentRun
	held   []held
	held2  [2]held       // held's backing for a body of one or two stages
	b      *mergerBranch // nil at a direct site
	slot   int           // index in fanout.ports and in the input reader's idle list
	routed *statCell     // parallel: the held cell of the branch's routing counter
}

// site is a node whose run is a fanout's: start makes an instance, embedding
// the fanout, whose dispatch routes a record (false: the run is gone).
type site interface {
	Node
	start(env *runEnv) *fanout
}

// fanout is the splitter half of one instance of a site: branch creation,
// routing and marker broadcast, on the goroutine that steps the site.  Its
// input reader flushes the writers it routes into whenever it waits.
type fanout struct {
	env     *runEnv
	det     bool
	inst    interface{ dispatch(*Record) bool } // the instance embedding f
	own     marker                              // det only: &own is broadcast after every routed record
	mux     chan branchEvent                    // the merge queue: branch frames and splitter events; nil: direct
	in      *streamReader
	out     *streamWriter
	x       *segmentRun // stepping the site as its stage at-1 (fanStage): no streams
	at      int
	chain   **segmentRun  // where f chains the executions it steps: &stepped, or at a stage &x.stepped
	writers atomic.Int32  // who still writes out or its queue: f, its merger, the writers a direct site spawned
	ports   []*branchPort // the live branches, ports[i].w in.onIdle[i]
	slab    []branchPort  // what port cuts the next ports from
	markers int           // global marker count broadcast so far
	stepped *segmentRun   // the executions f stepped its branches through since its last fold
}

// run runs the dispatch loop of the site until its input ends, the merger,
// if any, owning out on a worker of its own.  The last of f's writers to leave
// closes out, so the loop's worker goes back to the run with the input.  The
// site is direct unless it is deterministic, its input can carry markers, or
// out is no branch writer.  A site a stage stepped resumes here (segment.cut).
func (f *fanout) run(_ *runEnv, in *streamReader, out *streamWriter) {
	f.x, f.chain, f.in, f.out = nil, &f.stepped, in, out
	f.writers.Add(1)
	if f.det || out.marked || out.fan == nil {
		f.mux = make(chan branchEvent, f.env.buf+mergeQueueSlack)
		f.writers.Add(1)
		f.env.spawn(func() {
			if m := (&merger{f: f, out: out}); !m.run() {
				m.abandon()
			}
			f.leave()
		})
	}
	for _, port := range f.ports {
		port.w = f.output(port)
		in.autoFlush(port.w)
	}
	for {
		if in.drained() {
			foldChain(&f.stepped)
		}
		it, ok := in.recv()
		switch {
		case !ok:
		case it.mk != nil: // a foreign marker crosses every branch
			ok = f.broadcast(it.mk)
		default:
			ok = f.inst.dispatch(it.rec)
		}
		if !ok {
			break
		}
	}
	in.Discard()
	f.finish()
	f.leave()
}

// leave is one of f's writers done; the last closes out.
func (f *fanout) leave() {
	if f.writers.Add(-1) == 0 {
		f.out.close()
	}
}

// foldChain is a dispatcher's fold (arenaFront), before every input frame.
func foldChain(head **segmentRun) {
	for x := *head; x != nil; x = *head {
		x.fold()
		*head, x.next, x.listed = x.next, nil, false
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

// output is a new branch's writer: the site's own at a direct site, else a
// writer into the merge queue as a branch of its own.
func (f *fanout) output(port *branchPort) *streamWriter {
	if f.mux == nil {
		return f.out
	}
	port.b = &mergerBranch{join: f.markers}
	f.sendEv(branchEvent{kind: evRegister, b: port.b})
	return &streamWriter{env: f.env, fan: f, branch: port.b, batch: f.env.batch, marked: f.det || f.out.marked}
}

// addBranch registers a new branch and returns the port for routing.  A body
// (cuts.body) that can begin as it is — at a stage, any — is stepped, rest
// running behind it on goroutines of their own; otherwise n and rest run there,
// and with neither the branch is the identity, a star's exit.
func (f *fanout) addBranch(n runner, body *segment, rest ...runner) *branchPort {
	port := f.port()
	if f.x != nil || body != nil && !body.concurrent(f.env) {
		port.x, port.held = f.exec(body), slots(port.held2[:], len(body.stages))
	} else if n != nil {
		rest = append([]runner{n}, rest...)
	}
	if f.x == nil {
		port.w = f.output(port)
		if rest != nil {
			out := f.writer(port)
			var inR *streamReader
			inR, port.w = new(stream).open(f.env, f.env.buf)
			f.env.spawn(func() { runParts(f.env, rest, inR, out) })
		}
		f.in.autoFlush(port.w)
	}
	return port
}

// port cuts a new branch's port from f's slab.  A parallel's start sizes the
// slab for its branches and a star's for its two; a split's slabs double, each
// new one as long as the ports f has, up to maxPortSlab, so a replica costs no
// allocation of its own and a slab no more than maxPortSlab-1 unused ports.
func (f *fanout) port() *branchPort {
	if len(f.slab) == 0 {
		f.slab = make([]branchPort, min(max(len(f.ports), 1), maxPortSlab))
	}
	port := &f.slab[0]
	f.slab, port.slot = f.slab[1:], len(f.ports)
	f.ports = append(f.ports, port)
	return port
}

// exec is f's execution of body for one more branch: its latest stepped
// port's (a port leaves it only once body must run concurrently), or a new one.
func (f *fanout) exec(body *segment) *segmentRun {
	for i := len(f.ports) - 1; i >= 0; i-- {
		if x := f.ports[i].x; x != nil && x.seg == body {
			x.branches++
			return x
		}
	}
	return body.begin(f.env, nil)
}

// writer is the output writer of a branch leaving the dispatcher's hands: its
// own, or at a direct site a new one onto out's queue as out's branch.
func (f *fanout) writer(port *branchPort) *streamWriter {
	if f.mux != nil {
		return port.w
	}
	f.writers.Add(1)
	return &streamWriter{env: f.env, fan: f.out.fan, branch: f.out.branch, batch: f.env.batch, done: f}
}

// route sends a data record into a branch and, in deterministic mode, the
// sort marker after it; false on cancellation.  A stepped branch with a box
// that must now run concurrently first leaves the dispatcher's hands on an
// execution of its own (resume) — but at a stage, whose segment watches its
// boxes (segment.cut); else its record goes through the body's execution.
func (f *fanout) route(port *branchPort, r *Record) bool {
	if x := port.x; x != nil && f.x == nil && x.seg.concurrent(f.env) {
		if !port.w.flush() {
			releaseRecord(r)
			return false
		}
		foldChain(&f.stepped) // the stage dispatchers port holds are the next goroutine's from here
		out := port.w
		if out.fan != nil { // not a stream to rest: the branch writes the site's output
			out = f.writer(port)
		}
		own := x.seg.begin(f.env, out)
		own.held, own.branches = port.held, 0 // the branch x stepped, counted there
		var inR *streamReader
		inR, port.w = new(stream).open(f.env, f.env.buf)
		port.x, f.in.onIdle[port.slot] = nil, port.w
		f.env.spawn(func() { own.resume(inR) })
	}
	if x := port.x; x != nil {
		if !x.listed {
			x.listed, x.next, *f.chain = true, *f.chain, x
		}
		x.out, x.up, x.held = port.w, nil, port.held
		if f.x != nil {
			x.out, x.up = f.x.out, f // what the box engine's clock reads; where what leaves x goes on
		}
		if !x.take(r) {
			return false
		}
	} else if !port.w.send(item{rec: r}) {
		return false
	}
	return !f.det || f.broadcast(&f.own)
}

// close ends a branch's input: a stepped branch's stages give back what they
// hold and its writer, but for the site's own, closes; a spawned one drains.
func (f *fanout) close(port *branchPort) {
	if x := port.x; x != nil {
		x.held = port.held
		x.end()
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

// finish closes every branch input and tells the merger nothing more comes.
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
	markersSeen int
	held        fifo[heldRecord] // buffered data, in arrival order and so by region
}

// heldRecord is a buffered record and the marker region it belongs to.
type heldRecord struct {
	rec    *Record
	region int
}

// lastGlobalMarker is the global number of the branch's latest marker.
func (b *mergerBranch) lastGlobalMarker() int { return b.join + b.markersSeen }

// merger is the merger half of one site: it writes merged output to out until
// the splitter is done and all branches have closed, or the run is cancelled.
type merger struct {
	f   *fanout
	out *streamWriter
	// branches are the registered branches in registration order — the
	// fixed branch order of deterministic emission.  A branch whose
	// evRegister lost the cancellation race in sendEv may still deliver
	// events; the run is being abandoned, so it is merged without ever being
	// listed.
	branches []*mergerBranch
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
			m.branches = append(m.branches, e.b)
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
			if !m.advance() {
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
	return !slices.ContainsFunc(m.branches, func(b *mergerBranch) bool { return !b.closed })
}

func (m *merger) regionComplete(next int) bool {
	for _, b := range m.branches {
		if b.join < next && !b.closed && b.lastGlobalMarker() < next {
			return false
		}
	}
	return true
}

// emitRegion emits what the branches hold of the regions up to upTo, in
// branch order.  On cancellation what is still held
// stays for abandon; the record in flight is the out writer's to retract.
func (m *merger) emitRegion(upTo int) bool {
	for _, b := range m.branches {
		for b.held.len() != 0 && b.held.front().region <= upTo {
			if !m.out.send(item{rec: b.held.pop().rec}) {
				return false
			}
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
// all data, in runs without any markers), in branch order.
func (m *merger) flushTails() bool { return m.emitRegion(math.MaxInt) }

// abandon releases what a cancelled merge still holds — buffered regions,
// the frames queued for it — so the arena's ledger
// returns to zero.  What lands after this its writer takes back (offer).
func (m *merger) abandon() {
	for _, b := range m.branches {
		for b.held.len() != 0 {
			releaseRecord(b.held.pop().rec)
		}
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
