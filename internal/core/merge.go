package core

import "sort"

// This file implements the shared splitter/merger machinery of the three
// branching combinators (parallel composition, serial replication, parallel
// replication).
//
// Nondeterministic variants (the paper's ||, **, !!) merge branch outputs as
// soon as records become available: "any record produced proceeds as soon as
// possible" (§4).
//
// Deterministic variants (|, *, !) implement a sort-record protocol.  The
// splitter broadcasts a control marker to all live branches after every
// routed data record.  Each branch preserves FIFO order and forwards
// markers, so the k-th marker on every branch delimits the same input
// prefix.  The merger buffers each branch's output into regions bounded by
// markers and emits region t — in fixed branch order — once every branch
// has delivered marker t (or closed).  Branches created lazily (replication
// unfolds on demand) join with the current marker count; earlier regions
// are vacuously empty for them.
//
// Markers originating from an enclosing deterministic combinator ("foreign"
// markers) are broadcast and merged exactly the same way, which makes inner
// combinators — deterministic or not — order-transparent to outer ones.
//
// Transport note: branch inputs are batched streams, but markers are flush
// barriers (stream.go), so a broadcast marker — and every record routed
// before it — reaches each branch without waiting for the batch to fill.
// The liveness of the sort-record protocol is therefore independent of the
// batch size B.
//
// Fan-in is direct.  A branch has no output stream: the streamWriter its
// last node writes is bound to the fanout, so every frame it ships — a
// single item or a batch, under the usual flush rules — lands on the one
// merge queue (mux) tagged with the branch, and closing it is the branch's
// evClosed.  The merger consumes whole frames; markers may sit anywhere in a
// batch.  A branch whose body is a run of stages (fuse.go) — a split replica
// of synchrocell and box, a parallel branch that is one box — has no input
// stream and no goroutine either: it is a struct in the dispatcher's own
// hands, which steps each routed record through the stages into that writer,
// sends markers and the close straight to it, and flushes it when its own
// input runs dry.  The identity exit of a star is the branch of no stages.  A
// box the engine then finds worth running concurrently takes its branch out
// of the dispatcher's hands, for good (route).  The splitter's control events
// travel on the same queue, which is why it is the one multi-producer channel
// of the record plane besides the network boundary; the merger never blocks
// on anything but its output.

// branch event kinds flowing into the merger.
const (
	evRegister = iota // new branch: b, with its join mark set
	evFrame           // one frame of a branch's output
	evClosed          // branch output closed
	evMarker          // splitter announces a marker (identity + global number)
	evDone            // splitter finished; no further branches or markers
	evRetire          // splitter closed a branch's input (close protocol);
	//                   the frame's record, if non-nil, is the
	//                   drain-acknowledgement sentinel to emit after the
	//                   branch's last record
	evEmit // splitter hands one record straight to the output (the
	//        close protocol's acknowledgement when no replica exists)
)

type branchEvent struct {
	kind int
	b    *mergerBranch // evRegister, evFrame, evClosed, evRetire
	seq  int           // evMarker: global marker number
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
	b      *mergerBranch
	slot   int       // index in fanout.ports and in the input reader's idle list
	routed *statCell // parallel: the held cell of the branch's routing counter
}

// fanout is the splitter half: it owns branch creation, routing and marker
// broadcast.  All methods are called from the combinator's run goroutine
// only; the writers it routes into are registered with the combinator's
// input reader so records buffered for a branch are flushed whenever the
// splitter waits for more input.
type fanout struct {
	env       *runEnv
	det       bool
	level     int // own marker level (det only)
	ownTicket uint64
	mux       chan branchEvent // the merge queue: branch frames and splitter events
	in        *streamReader    // the combinator's input, for autoFlush wiring
	// ports lists the live branches; ports[i].w is in.onIdle[i] (nothing
	// else registers with a combinator's input), so a retired replica leaves
	// both lists at once.
	ports   []*branchPort
	markers int // global marker count broadcast so far
	// front is the dispatcher's arena front, lent to every branch it steps;
	// stepped chains those stepped since the last fold (segmentRun.next).
	front   arenaFront
	stepped *segmentRun
}

func newFanout(env *runEnv, det bool, in *streamReader) *fanout {
	f := &fanout{env: env, det: det, in: in, mux: make(chan branchEvent, env.buf+mergeQueueSlack)}
	if det {
		f.level = env.newLevel()
	}
	return f
}

// serve runs the site until both halves are done: the merger on a goroutine
// of its own, which owns out meanwhile, and here the dispatch loop — every
// data record goes to route, which reports false when the run is gone.
func (f *fanout) serve(out *streamWriter, route func(*Record) bool) {
	defer out.close()
	mergeDone := make(chan struct{})
	go func() {
		defer close(mergeDone)
		if m := (&merger{f: f, out: out, ownLevel: f.level}); !m.run() {
			m.abandon()
		}
	}()
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
	<-mergeDone
}

// fold is the dispatcher's fold (arenaFront), before every input frame: the
// branches it stepped since the last fold their counters and the front they share.
func (f *fanout) fold() {
	for x := f.stepped; x != nil; x = f.stepped {
		x.fold()
		f.stepped, x.next, x.listed = x.next, nil, false
	}
}

// sendEv delivers an event to the merger; false means the run is cancelled.
func (f *fanout) sendEv(e branchEvent) bool { return handOff(f.env.ctx, f.mux, e, nil) }

// addBranch registers a new branch and returns the port for routing.  With a
// body to step (stepped, fuse.go) the branch stays in the dispatcher's hands:
// no input stream, no goroutine.  Otherwise it is n on goroutines of its own
// — and with neither, the identity: the exit path of serial replication.
func (f *fanout) addBranch(n Node, body *segment) *branchPort {
	b := &mergerBranch{join: f.markers}
	f.sendEv(branchEvent{kind: evRegister, b: b})
	out := &streamWriter{env: f.env, fan: f, branch: b, batch: f.env.batch}
	port := &branchPort{w: out, b: b, slot: len(f.ports)}
	if body != nil && !body.escalated(f.env) {
		port.x = body.begin(f.env, out)
		port.x.front = &f.front
	} else if n != nil {
		var inR *streamReader
		inR, port.w = newStream(f.env)
		go n.run(f.env, inR, out)
	}
	f.ports = append(f.ports, port)
	f.in.autoFlush(port.w)
	return port
}

// route sends a data record into a branch and, in deterministic mode, the
// per-record sort marker after it; false on cancellation.  A stepped branch
// with a box the engine has meanwhile found worth running concurrently first
// leaves the dispatcher's hands (resume): it is a spawned branch now.
func (f *fanout) route(port *branchPort, r *Record) bool {
	if x := port.x; x != nil && x.seg.escalated(f.env) {
		if !port.w.flush() {
			releaseRecord(r)
			return false
		}
		f.fold() // x's tallies are the next goroutine's from here
		var inR *streamReader
		inR, port.w = newStream(f.env)
		port.x, f.in.onIdle[port.slot] = nil, port.w
		go x.resume(inR)
	}
	if x := port.x; x != nil {
		if !x.listed {
			x.listed, x.next, f.stepped = true, f.stepped, x
		}
		if !x.push(0, r) {
			return false
		}
	} else if !port.w.sendRecord(r) {
		return false
	}
	if !f.det {
		return true
	}
	f.ownTicket++
	return f.broadcast(&marker{level: f.level, ticket: f.ownTicket})
}

// close ends a branch's input: a stepped branch's stages give back what they
// hold and its writer closes; a spawned one drains behind its closed stream.
func (port *branchPort) close() {
	if port.x != nil {
		port.x.end()
	}
	port.w.close()
}

func (f *fanout) broadcast(mk *marker) bool {
	f.markers++
	if !f.sendEv(branchEvent{kind: evMarker, seq: f.markers, fr: frame{single: item{mk: mk}}}) {
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
// branch's input stream is closed (the branch drains and its output merges
// as usual, ending in its evClosed), the port leaves the splitter's tables
// and, if sentinel is non-nil, the merger emits sentinel strictly after the
// branch's last record.  The port must not be routed to after retireBranch.
func (f *fanout) retireBranch(port *branchPort, sentinel *Record) bool {
	port.close()
	last := len(f.ports) - 1
	moved := f.ports[last]
	moved.slot = port.slot
	f.ports[port.slot], f.in.onIdle[port.slot] = moved, moved.w
	f.ports[last], f.in.onIdle[last] = nil, nil
	f.ports, f.in.onIdle = f.ports[:last], f.in.onIdle[:last]
	return f.sendEv(branchEvent{kind: evRetire, b: port.b, fr: frame{single: item{rec: sentinel}}})
}

// emitDirect hands one record straight to the merged output — the close
// protocol's acknowledgement path when no replica exists for the key.
func (f *fanout) emitDirect(rec *Record) bool {
	return f.sendEv(branchEvent{kind: evEmit, fr: frame{single: item{rec: rec}}})
}

// finish closes all branch inputs and tells the merger no more branches or
// markers will appear.
func (f *fanout) finish() {
	for _, port := range f.ports {
		port.close()
	}
	f.sendEv(branchEvent{kind: evDone})
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
	regions     map[int][]*Record // buffered data per region; nil until needed
	sentinel    *Record           // close protocol: emit after the last record
}

// lastGlobalMarker returns the global number of the latest marker this
// branch has delivered.
func (b *mergerBranch) lastGlobalMarker() int { return b.join + b.markersSeen }

// merger is the merger half of one site: it writes merged output to out until
// the splitter is done and all branches have closed, or the run is cancelled.
type merger struct {
	f        *fanout
	out      *streamWriter
	ownLevel int
	// branches are the registered branches in registration order — the
	// fixed branch order of deterministic emission.  Settled ones are
	// compacted away (register), so a long-lived site holds entries for its
	// live branches only.  A branch whose evRegister lost the cancellation
	// race in sendEv may still deliver events; the run is being abandoned,
	// so it is merged without ever being listed.
	branches     []*mergerBranch
	dead         int             // settled entries still listed
	markerIDs    map[int]*marker // announced, not yet emitted
	totalMarkers int
	emitted      int
	done         bool
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
			if m.markerIDs == nil {
				m.markerIDs = map[int]*marker{}
			}
			m.totalMarkers = e.seq
			m.markerIDs[e.seq] = e.fr.single.mk
			if !m.advance() {
				return false
			}
		case evClosed:
			e.b.closed = true
			if !m.advance() || !m.settle(e.b) {
				return false
			}
		case evRetire:
			// The splitter closed this branch's input.  Remember the drain
			// acknowledgement (if requested); the branch's evClosed — or, in
			// deterministic runs, the emission of its last buffered region —
			// releases it.  evRetire and evClosed race through the queue from
			// different goroutines, so settle checks both orders.
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
			if m.emitted == m.totalMarkers {
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
	if b.regions == nil {
		b.regions = map[int][]*Record{}
	}
	b.regions[region] = append(b.regions[region], it.rec)
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

// sendAll emits recs in order; on cancellation the unsent rest is released
// (the one in flight is the out writer's to retract).
func (m *merger) sendAll(recs []*Record) bool {
	for i, r := range recs {
		if !m.out.sendRecord(r) {
			for _, rest := range recs[i+1:] {
				releaseRecord(rest)
			}
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
	if !b.closed || len(b.regions) != 0 {
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

func (m *merger) emitRegion(next int) bool {
	for _, b := range m.branches {
		if recs, ok := b.regions[next]; ok {
			delete(b.regions, next)
			if !m.sendAll(recs) {
				return false
			}
		}
		if !m.settle(b) {
			return false
		}
	}
	mk := m.markerIDs[next]
	delete(m.markerIDs, next)
	if mk != nil && mk.level != m.ownLevel {
		return m.out.send(item{mk: mk})
	}
	return true
}

// advance emits all currently complete regions; false on cancellation.
func (m *merger) advance() bool {
	for m.emitted < m.totalMarkers {
		next := m.emitted + 1
		if _, announced := m.markerIDs[next]; !announced {
			return true // identity not yet known
		}
		if !m.regionComplete(next) {
			return true
		}
		if !m.emitRegion(next) {
			return false
		}
		m.emitted = next
	}
	return true
}

// flushTails emits data buffered after the last marker of each branch (or
// all data, in runs without any markers), in branch order, followed by any
// retired branch's drain acknowledgement.
func (m *merger) flushTails() bool {
	for _, b := range m.branches {
		keys := make([]int, 0, len(b.regions))
		for k := range b.regions {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			recs := b.regions[k]
			delete(b.regions, k)
			if !m.sendAll(recs) {
				return false
			}
		}
		if !m.settle(b) {
			return false
		}
	}
	return true
}

// abandon releases what a cancelled merge still holds — buffered regions,
// pending acknowledgements and the frames queued for it — so the arena's
// ledger returns to zero.  (A frame shipped after this is dropped with the
// rest of the cancelled run.)
func (m *merger) abandon() {
	for _, b := range m.branches {
		for _, recs := range b.regions {
			for _, r := range recs {
				releaseRecord(r)
			}
		}
		releaseRecord(b.sentinel)
	}
	for {
		select {
		case e := <-m.f.mux:
			e.fr.release()
		default:
			return
		}
	}
}
