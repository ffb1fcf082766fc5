package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// BoxFunc is the computation wrapped by a box.  It receives the values bound
// to the box signature's input labels, in signature order (tag labels arrive
// as int), and emits any number of output records through the emitter — the
// paper's snet_out interface.  Box functions must be stateless and must not
// retain args or emitted values after returning; the runtime may run many
// instances of the same box concurrently (one per replica).
//
// A returned error is reported to the run's error handler; the box then
// continues with the next record.
type BoxFunc func(args []any, out *Emitter) error

// ErrCancelled is returned by Emitter.Out when the run has been cancelled;
// box functions should return promptly when they see it.
var ErrCancelled = errors.New("core: run cancelled")

// Emitter delivers a box invocation's output records — the snet_out
// interface function of §4.  It is valid only for the duration of the box
// call it was passed to.
type Emitter struct {
	env *runEnv
	box *boxNode
	// src is the invocation's input record and prog the box's program for its
	// shape: where each emitted value goes, and what src hands on.
	src     *Record
	prog    *boxProg
	front   *arenaFront // of the goroutine that steps the box; nil (the arena itself) on the concurrent engine
	stopped bool
	emitted int
	// Where the emissions go.  A box stepped as a stage (fuse.go) hands
	// each one to the stage after it, x.push(next, ·) — for the last stage
	// of a segment that is the segment's output stream, or the segment of
	// the stage dispatcher stepping it.  An invocation of the concurrent
	// engine is nobody's stage: x is nil and it writes out, its slot's
	// emission stream (boxengine.go).
	x    *segmentRun
	next int
	out  *streamWriter
	// held is the latest emission of a stage's invocation, kept back until
	// the next one or the end of the call: a call's last emission leaves
	// with the step's return, in the segment's loop, not from inside the
	// call — so a box that emits once per call nests nothing, and has let go
	// of its input before its output moves on.
	held *Record
}

// Out emits one record according to output variant number `variant`
// (1-based, as in the paper's snet_out(1, x)).  vals must match the
// signature's label tuple for that variant: tag labels take int values.
// Excess labels of the input record are attached by flow inheritance unless
// the output already carries them.
func (e *Emitter) Out(variant int, vals ...any) error {
	if e.stopped {
		// The run is gone; nothing emitted from here on can reach the
		// output stream, so stop counting and fail fast.
		return ErrCancelled
	}
	if variant < 1 || variant > len(e.box.boxSig.Out) {
		return fmt.Errorf("core: box %s: snet_out variant %d out of range 1..%d",
			e.box.label, variant, len(e.box.boxSig.Out))
	}
	labels, op := e.box.boxSig.Out[variant-1], &e.prog.outs[variant-1]
	if len(vals) != len(labels) {
		return fmt.Errorf("core: box %s: snet_out variant %d needs %d values, got %d",
			e.box.label, variant, len(labels), len(vals))
	}
	rec := e.front.acquire(op.shape)
	for i, l := range labels {
		d := op.dst[i]
		if !l.IsTag {
			if d >= 0 {
				rec.fvals[d] = vals[i]
			}
			continue
		}
		tv, ok := vals[i].(int)
		if !ok {
			e.front.releaseRecord(rec)
			return fmt.Errorf("core: box %s: value for tag <%s> must be int, got %T",
				e.box.label, l.Name, vals[i])
		}
		if d >= 0 {
			rec.tvals[d] = tv
		}
	}
	op.run(rec, e.src) // flow inheritance
	// Pass the emission on; if that fails the run is gone, and rec with it.
	delivered := false
	switch {
	case e.x == nil:
		e.env.trace(e.box.label, "out", rec)
		delivered = e.out.sendRecord(rec)
	case (e.next < len(e.x.seg.stages) || e.x.up != nil) && ctxDone(e.env.ctx):
		// The stages after this one may never send anything, and then no
		// stream is there to observe cancellation: check it here so an
		// emit-heavy box cannot outlive its run.
		e.front.releaseRecord(rec)
	default:
		e.env.trace(e.box.label, "out", rec)
		// The emission before this one moves on now, from inside the call; this
		// one waits for the next, or for the end of the call (boxNode.step).
		prev := e.held
		e.held = rec
		delivered = prev == nil || e.x.push(e.next, prev)
	}
	if !delivered {
		e.stopped = true
		return ErrCancelled
	}
	e.emitted++
	return nil
}

// Emitted reports how many records this invocation has emitted so far.
func (e *Emitter) Emitted() int { return e.emitted }

// Done exposes the run's cancellation signal.  Box functions are stateless
// user code with no context of their own; one that blocks (I/O, a long
// solve) must select on Done and return ErrCancelled so session release
// and service shutdown cannot leak its goroutine.
func (e *Emitter) Done() <-chan struct{} { return e.env.ctx.Done() }

// Context returns the run's context, for box bodies that call
// context-aware code (e.g. sched.Pool loops).
func (e *Emitter) Context() context.Context { return e.env.ctx }

// boxNode wraps a BoxFunc as a network component.
type boxNode struct {
	label   string
	boxSig  *BoxSignature
	fn      BoxFunc
	workers int // fixed invocation width; 0 inherits the run's WithBoxWorkers
	keys    boxStatKeys
	// consumed is the signature's input variant: the labels an invocation
	// binds, which flow inheritance therefore does not copy to its outputs.
	consumed Variant
	// progs caches the signature bound to each input shape (boxProg) — nil for
	// a shape that lacks an input label.  A pure function of the signature,
	// shared by every run.
	progs shapeMemo[*boxProg]
	// The box engine's measurement of a box nobody gave a width
	// (boxengine.go): slowRun counts its consecutive slow invocations across
	// all instances, and escalated is the one-way verdict that it is worth
	// running concurrently, which every instance follows from then on.  Like
	// the route tables, this is learned state on an otherwise immutable
	// blueprint.
	slowRun   atomic.Int32
	escalated atomic.Bool
	lone      // the box on its own, invoked one call at a time, is a segment of one (fuse.go)
}

// boxStatKeys are the node's stat-counter keys, concatenated once at
// construction so the per-invocation accounting never builds a string.  Who
// runs the invocations tallies calls and emitted (boxNode.step, the concurrent
// engine's releaser): a completed invocation counts under calls and its
// emissions under emitted, one cut short by run cancellation under cancelled
// instead.  "Emitted" means accepted by the box's output stream: under run
// cancellation up to B-1 emissions batched in the writer's pending frame can
// still be dropped in flight (the transport's own "stream.records" retracts
// those; see ship), and so can the last emission of a stepped call, which
// moves on only after the call is counted.
type boxStatKeys struct {
	instances, concurrency, inflight    string
	calls, emitted, cancelled, rejected string
	panics, escalated                   string
}

func makeBoxStatKeys(label string) boxStatKeys {
	p := "box." + label + "."
	return boxStatKeys{
		instances: p + "instances", concurrency: p + "concurrency", inflight: p + "inflight",
		calls: p + "calls", emitted: p + "emitted", cancelled: p + "cancelled",
		rejected: p + "rejected", panics: p + "panics", escalated: p + "escalated",
	}
}

// NewBox declares a box with the given name, signature and function —
// the S-Net `box name (in) -> (out) | ...` declaration.  Its concurrency
// width is the run's (WithBoxWorkers); with none given the engine chooses:
// invocations run one at a time on the node's own goroutine until the box
// function proves slow enough to repay concurrent invocation, then up to
// GOMAXPROCS at a time (boxengine.go).
func NewBox(name string, sig *BoxSignature, fn BoxFunc) Node {
	return NewBoxConcurrent(name, sig, fn, 0)
}

// NewBoxConcurrent is NewBox with a fixed per-box concurrency width: the
// node runs up to `workers` invocations of fn at a time, from its first
// record on, regardless of the run's WithBoxWorkers setting.  workers == 0
// is NewBox; workers == 1 pins the box to strictly sequential invocation
// (for box functions whose statelessness the author does not trust).
// Output order is preserved at any width (see boxengine.go).
func NewBoxConcurrent(name string, sig *BoxSignature, fn BoxFunc, workers int) Node {
	if name == "" {
		name = autoName("box")
	}
	if sig == nil {
		panic("core: NewBox: nil signature")
	}
	if fn == nil {
		panic("core: NewBox: nil box function")
	}
	b := &boxNode{label: name, boxSig: sig, fn: fn, workers: max(workers, 0),
		keys: makeBoxStatKeys(name), consumed: NewVariant(sig.In...)}
	b.alone(b)
	return b
}

func (b *boxNode) name() string   { return b.label }
func (b *boxNode) String() string { return "box " + b.label + " " + b.boxSig.String() }

func (b *boxNode) sig() (RecType, RecType) {
	return b.boxSig.InType(), b.boxSig.OutType()
}

// boxProg is a box signature bound to one input shape (prog.go): the slot of
// every argument, and per output variant the output record's layout.
type boxProg struct {
	args []int // per input label, its slot in the input shape
	outs []boxOut
}

// boxOut builds one output variant: outProg's shape and inherited moves, and
// per emitted value its slot in that shape (-1: a later value of the same
// label overrides it).
type boxOut struct {
	outProg
	dst []int
}

// program returns the box's program for the given input shape, compiling and
// memoizing it on first sight; nil if the shape does not satisfy the signature.
func (b *boxNode) program(sh *shape) *boxProg {
	if p, ok := b.progs.load(sh); ok {
		return p
	}
	p := &boxProg{args: make([]int, len(b.boxSig.In)), outs: make([]boxOut, len(b.boxSig.Out))}
	for i, l := range b.boxSig.In {
		var ok bool
		if p.args[i], ok = sh.slot(l); !ok {
			return b.progs.store(sh, nil)
		}
	}
	for v, tuple := range b.boxSig.Out {
		p.outs[v].outProg, p.outs[v].dst = layOut(sh, b.consumed, tuple)
	}
	return b.progs.store(sh, p)
}

// open returns the emitter of stage i of x, on first use preparing the stage
// to invoke the box: one emitter and one argument buffer serve every
// invocation of this execution — box functions must not retain either after
// returning (the BoxFunc contract), so step resets rather than reallocates.
// The in-flight high-water mark is 1 by construction here, recorded so the
// key exists at any width.
func (b *boxNode) open(x *segmentRun, i int) *Emitter {
	st := &x.state[i]
	if st.em.x != x { // the first call, or the first after a hand-over (resume)
		st.em = Emitter{env: x.env, box: b, x: x, next: i + 1, front: x.front}
		st.args = make([]any, 0, len(b.boxSig.In))
		x.env.stats.SetMax(b.keys.inflight, 1)
	}
	return &st.em
}

// step is one sequential invocation: bind the record's values, run the box
// function — its emissions move on from inside the call, all but the last,
// which step returns — and settle.  The invocation consumed its input (the
// values were bound into args or flow-inherited into fresh outputs), so the
// record returns to the arena before the next one is looked at.
func (b *boxNode) step(x *segmentRun, i int, rec *Record) (*Record, bool) {
	env, em, st := x.env, b.open(x, i), &x.state[i]
	if st.shape != rec.shape {
		st.shape, st.box = rec.shape, b.program(rec.shape)
	}
	args, ok := b.bind(env, rec, st.box, st.args)
	if !ok {
		return nil, true
	}
	em.src, em.prog, em.stopped, em.emitted = rec, st.box, false, 0
	// What the instance's first record sets up (open) — an allocation and a
	// trip through the stats lock, on a goroutine that may have just woken up
	// cold — is the instance's cost, not the box's: the clock starts after it.
	// The clock runs where nobody gave the box a width and there is a wider
	// one to move to.
	w, auto := b.width(env)
	clocked := auto && w > 1
	var began, waited time.Duration
	if clocked {
		began, waited = time.Since(engineEpoch), x.out.blocked
	}
	b.invoke(env, args, em)
	if clocked {
		b.observe(time.Since(engineEpoch)-began, x.out.blocked-waited)
	}
	last := em.held
	em.src, em.held = nil, nil
	x.front.releaseRecord(rec)
	st.emitted.n += int64(em.emitted)
	x.applied.n++
	if em.stopped {
		env.stats.Add(b.keys.cancelled, 1) // at once: the run is gone
		x.front.releaseRecord(last)        // never handed on, so still ours
		return nil, false
	}
	st.calls.n++
	return last, true
}

// invoke runs the box function with panic isolation: a panicking box loses
// the current record but the network keeps running (failure injection tests
// rely on this).
func (b *boxNode) invoke(env *runEnv, args []any, em *Emitter) {
	defer func() {
		if r := recover(); r != nil {
			env.error(fmt.Errorf("core: box %s panicked: %v", b.label, r))
			env.stats.Add(b.keys.panics, 1)
		}
	}()
	if err := b.fn(args, em); err != nil && !errors.Is(err, ErrCancelled) {
		env.error(fmt.Errorf("core: box %s: %w", b.label, err))
	}
}

// bind starts an invocation on rec, whose shape p was compiled for: it traces
// the record in and reads the signature-ordered argument values from their
// slots into buf (reused across invocations where they run one at a time; pass
// nil to allocate).  Box functions must not retain the returned slice.  A
// record that does not carry the signature's labels (p is nil) is reported,
// counted under "box.<name>.rejected" and released; bind then returns false.
func (b *boxNode) bind(env *runEnv, rec *Record, p *boxProg, buf []any) ([]any, bool) {
	env.trace(b.label, "in", rec)
	if p == nil {
		env.error(fmt.Errorf("core: box %s: input record %s does not match signature %s",
			b.label, rec, b.boxSig))
		env.stats.Add(b.keys.rejected, 1)
		releaseRecord(rec)
		return nil, false
	}
	args := buf[:0]
	for i, l := range b.boxSig.In {
		if l.IsTag {
			args = append(args, rec.tvals[p.args[i]])
		} else {
			args = append(args, rec.fvals[p.args[i]])
		}
	}
	return args, true
}
