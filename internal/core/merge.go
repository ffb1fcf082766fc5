package core

import (
	"math"
	"sync"
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
	// dispatcher's own hands, which has no stream, the writer into the merger
	// (none at a stage).
	w *streamWriter
	// x is a stepped branch's execution, writing w; nil for a spawned branch
	// and for the branch of no stages at all, the identity exit of a star.
	x      *segmentRun
	b      *mergerBranch // nil at a direct site
	own    *streamWriter // direct: a spawned branch's writer (fanout.writer)
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
	writing sync.WaitGroup // who writes out or its queue but f: the merger, or the writers a direct site spawned
	ports   []*branchPort  // the live branches, ports[i].w in.onIdle[i]
	markers int            // global marker count broadcast so far
	// front is the arena front lent to the branches f steps; stepped chains
	// those stepped since the last fold, last the latest folded (segment.begin).
	front         arenaFront
	stepped, last *segmentRun
}

// run runs the site until both halves are done: the merger, if any, owning
// out on a goroutine of its own, and the dispatch loop.  The site is direct
// unless it is deterministic, its input can carry markers, or out is no branch
// writer.  A site a stage stepped resumes here (segment.cut).
func (f *fanout) run(_ *runEnv, in *streamReader, out *streamWriter) {
	f.x, f.in, f.out = nil, in, out
	if f.det || out.marked || out.fan == nil {
		f.mux = make(chan branchEvent, f.env.buf+mergeQueueSlack)
		f.writing.Add(1)
		go func() {
			defer f.writing.Done()
			if m := (&merger{f: f, out: out}); !m.run() {
				m.abandon()
			}
		}()
	}
	for _, port := range f.ports {
		port.w = f.output(port)
		port.x.out, port.x.up = port.w, nil
		in.autoFlush(port.w)
	}
	for {
		if in.drained() {
			f.fold()
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
	f.front.drain()
	f.writing.Wait()
	out.close()
}

// fold is the dispatcher's fold (arenaFront), before every input frame.
func (f *fanout) fold() {
	for x := f.stepped; x != nil; x = f.stepped {
		x.fold()
		f.stepped, f.last, x.next, x.listed = x.next, x, nil, false
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
	port := &branchPort{slot: len(f.ports)}
	f.ports = append(f.ports, port)
	if f.x != nil {
		port.x = body.begin(f.env, nil, f.last)
		port.x.front, port.x.up = &f.front, f
		return port
	}
	port.w = f.output(port)
	if body != nil && !body.concurrent(f.env) {
		out := port.w
		if rest != nil {
			var inR *streamReader
			inR, out = newStream(f.env, f.env.buf)
			go runParts(f.env, rest, inR, f.writer(port))
			port.w = out
		}
		port.x = body.begin(f.env, out, f.last)
		port.x.front = &f.front
	} else if n != nil {
		out := f.writer(port)
		var inR *streamReader
		inR, port.w = newStream(f.env, f.env.buf)
		go runParts(f.env, append([]runner{n}, rest...), inR, out)
	}
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
// sort marker after it; false on cancellation.  A stepped branch with a box
// that must now run concurrently first leaves the dispatcher's hands (resume)
// — but at a stage, whose segment watches its boxes (segment.cut).
func (f *fanout) route(port *branchPort, r *Record) bool {
	if x := port.x; x != nil && f.x == nil && x.seg.concurrent(f.env) {
		if !port.w.flush() {
			releaseRecord(r)
			return false
		}
		f.fold() // x's tallies are the next goroutine's from here
		if f.last == x {
			f.last = nil
		}
		if x.out.fan != nil { // not a stream to rest: x writes the site's output
			x.out = f.writer(port)
		}
		var inR *streamReader
		inR, port.w = newStream(f.env, f.env.buf)
		port.x, f.in.onIdle[port.slot] = nil, port.w
		go x.resume(inR)
	}
	if x := port.x; x != nil {
		if !x.listed {
			x.listed, x.next, f.stepped = true, f.stepped, x
		}
		if f.x != nil {
			x.out = f.x.out // what the box engine's clock reads
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
	f.ports[port.slot], f.ports[last], f.ports = moved, nil, f.ports[:last]
	if f.x == nil {
		idle := f.in.onIdle
		idle[port.slot], idle[last], f.in.onIdle = moved.w, nil, idle[:last]
	}
	if f.mux == nil {
		return sentinel == nil || f.emitDirect(sentinel)
	}
	return f.sendEv(branchEvent{kind: evRetire, b: port.b, fr: frame{single: item{rec: sentinel}}})
}

// emitDirect hands one record straight to the merged output — the close
// protocol's acknowledgement path when no replica exists for the key.
func (f *fanout) emitDirect(rec *Record) bool {
	switch {
	case f.x != nil:
		return f.x.push(f.at, rec)
	case f.mux == nil:
		return f.out.sendRecord(rec) && f.out.flush()
	}
	return f.sendEv(branchEvent{kind: evEmit, fr: frame{single: item{rec: rec}}})
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

// lastGlobalMarker is the global number of the branch's latest marker.
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
// pending acknowledgements, the frames queued for it — so the arena's ledger
// returns to zero.  What lands after this its writer takes back (offer).
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
