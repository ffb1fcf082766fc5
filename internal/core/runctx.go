package core

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Stats collects named counters and high-water marks from a running network.
// Keys are structured as "<nodekind>.<nodename>.<metric>", e.g.
// "box.solveOneLevel.calls", "star.solve_loop.replicas",
// "split.width.replicas".  Stats are safe for concurrent use.
//
// A stat is an atomic cell, and the mutex guards only the two maps that name
// the cells: Add and SetMax look the cell up, then do the atomic operation.  A
// site that counts once per record keeps the pointer (held) and pays the
// look-up once.  Reads never create a cell (DESIGN §4, "Counters").
type Stats struct {
	mu       sync.Mutex
	counters map[string]*statCell
	maxima   map[string]*statCell
	// Cells are cut from free, which starts as the inline chunk: the couple
	// of dozen keys of a typical run cost no allocation of their own.
	free  []statCell
	first [32]statCell
}

type statCell = atomic.Int64

// The transport-plane keys (runEnv.foldStream).
const (
	statStreamFrames  = "stream.frames"
	statStreamRecords = "stream.records"
	statFrameHWM      = "stream.frame.hwm"
)

func newStats() *Stats {
	s := &Stats{counters: make(map[string]*statCell, 16), maxima: make(map[string]*statCell, 8)}
	s.free = s.first[:]
	return s
}

// atomicMax raises a to at least v.
func atomicMax(a *statCell, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// NewStats returns an empty, usable Stats collector.  The runtime allocates
// its own per-run collector in Start; NewStats exists for aggregators (such
// as the session service) that fold many runs' statistics into one.
func NewStats() *Stats { return newStats() }

// cell returns m's cell (s.counters or s.maxima) for key, new at first use.
func (s *Stats) cell(m map[string]*statCell, key string) *statCell {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := m[key]
	if c == nil {
		if len(s.free) == 0 {
			s.free = make([]statCell, len(s.first))
		}
		c, s.free = &s.free[0], s.free[1:]
		m[key] = c
	}
	return c
}

func (s *Stats) counter(key string) *statCell { return s.cell(s.counters, key) }
func (s *Stats) maximum(key string) *statCell { return s.cell(s.maxima, key) }

// held returns the counter cell *c, which belongs to one goroutine, looking
// it up under key at the first count — not before, so a key nobody counted is
// never reported.
func (s *Stats) held(c **statCell, key string) *statCell {
	if *c == nil {
		*c = s.counter(key)
	}
	return *c
}

// tally is a counter one goroutine ticks per record: the ticks since its owner
// last folded (arenaFront) and the held cell they go to, which is exact
// wherever the ledger is.
type tally struct {
	n    int64
	cell *statCell
}

func (c *tally) fold(s *Stats, key string) {
	if c.n != 0 {
		s.held(&c.cell, key).Add(c.n)
		c.n = 0
	}
}

// Merge folds another collector's snapshot into s: counters are added,
// maxima are maximised.  Both collectors remain usable.
func (s *Stats) Merge(o *Stats) {
	for _, v := range o.values() { // o's lock is free again: never both at once
		if v.max {
			s.SetMax(v.key, v.val)
		} else {
			s.Add(v.key, v.val)
		}
	}
}

// Add increments a counter and returns the new value.
func (s *Stats) Add(key string, delta int64) int64 { return s.counter(key).Add(delta) }

// SetMax records v as a high-water mark for key.
func (s *Stats) SetMax(key string, v int64) { atomicMax(s.maximum(key), v) }

// Counter returns the current value of a counter.
func (s *Stats) Counter(key string) int64 { return s.read(s.counters, key) }

// Max returns the recorded high-water mark for key.
func (s *Stats) Max(key string) int64 { return s.read(s.maxima, key) }

// read is the value of the cell m names key, 0 if it names none.
func (s *Stats) read(m map[string]*statCell, key string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := m[key]; c != nil {
		return c.Load()
	}
	return 0
}

type statValue struct {
	key string
	val int64
	max bool // a high-water mark, rendered "<key>.max"
}

// values lists what the collector reports: every counter, and every
// high-water mark above zero (a mark nobody raised is no mark).
func (s *Stats) values() []statValue {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]statValue, 0, len(s.counters)+len(s.maxima))
	for k, c := range s.counters {
		out = append(out, statValue{key: k, val: c.Load()})
	}
	for k, c := range s.maxima {
		if v := c.Load(); v > 0 {
			out = append(out, statValue{key: k, val: v, max: true})
		}
	}
	return out
}

// Snapshot returns all counters (maxima suffixed ".max") as a plain map.
func (s *Stats) Snapshot() map[string]int64 {
	vals := s.values()
	out := make(map[string]int64, len(vals))
	for _, v := range vals {
		if v.max {
			v.key += ".max"
		}
		out[v.key] = v.val
	}
	return out
}

// Keys returns the sorted counter keys (for deterministic reports).
func (s *Stats) Keys() []string {
	var keys []string
	for _, v := range s.values() {
		if !v.max {
			keys = append(keys, v.key)
		}
	}
	sort.Strings(keys)
	return keys
}

// SumPrefix sums all counters whose key starts with the given prefix.
func (s *Stats) SumPrefix(prefix string) (total int64) {
	for _, v := range s.values() {
		if !v.max && strings.HasPrefix(v.key, prefix) {
			total += v.val
		}
	}
	return total
}

// Tracer observes records crossing node boundaries — S-Net's promise that
// "all streams can be observed individually" (§1).  Dir is "in" or "out".
// Implementations must be safe for concurrent use and must not retain the
// record.
type Tracer interface {
	Event(node, dir string, rec *Record)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(node, dir string, rec *Record)

// Event calls f.
func (f TracerFunc) Event(node, dir string, rec *Record) { f(node, dir, rec) }

// runEnv carries the per-run execution context shared by all nodes of one
// started network.
type runEnv struct {
	ctx        context.Context
	stats      *Stats
	tracer     Tracer
	onError    func(error)
	buf        int // stream buffer capacity, in frames
	batch      int // stream batch size B (items per frame, >= 1)
	maxDepth   int // serial replication unfolding cap
	maxWidth   int // parallel replication width cap
	boxWorkers int // WithBoxWorkers: in-flight invocation cap per box node, 0 when not given
	// autoWidth is the width a box nobody gave a width may grow to once
	// the engine has measured it as worth it: GOMAXPROCS at Start.
	autoWidth int
	// spines is the plan's grouping: for every position of its tree that
	// runs as a pipeline the parts that run on a goroutine each (fuse.go).
	// Read-only.
	spines cuts

	// firstErr records the first runtime error of the run (Handle.Err).
	errMu    sync.Mutex
	firstErr error

	// The transport cells, held from the first fold on (foldStream).
	streamOnce           sync.Once
	frames, records, hwm *statCell

	workers workers // every goroutine of the run (spawn, worker.go)
}

// foldStream adds a closing stream's tallies to the run's transport counters.
// Streams close once per replica and, in the concurrent box engine, once per
// invocation, so the run holds these cells as an instance holds its own.
func (e *runEnv) foldStream(frames, records int64, hwm int) {
	e.streamOnce.Do(func() {
		e.frames, e.records = e.stats.counter(statStreamFrames), e.stats.counter(statStreamRecords)
		e.hwm = e.stats.maximum(statFrameHWM)
	})
	e.frames.Add(frames)
	e.records.Add(records)
	atomicMax(e.hwm, int64(hwm))
}

// err returns the first runtime error reported so far.
func (e *runEnv) err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.firstErr
}

func (e *runEnv) error(err error) {
	e.stats.Add("runtime.errors", 1)
	e.errMu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.errMu.Unlock()
	if e.onError != nil {
		e.onError(err)
	}
}

func (e *runEnv) trace(node, dir string, rec *Record) {
	if e.tracer != nil {
		e.tracer.Event(node, dir, rec)
	}
}

// Option configures a network run.
type Option func(*runEnv)

// DefaultStreamBuffer is the per-stream frame buffer capacity applied when
// WithBuffer does not select one.  Together with the batch
// size B it bounds the in-flight items of every stream edge (see
// StreamCapacity), which is what the static occupancy analysis sums into a
// whole-plan memory high-water bound.
const DefaultStreamBuffer = 32

// WithBuffer sets the per-stream buffer capacity in frames (default
// DefaultStreamBuffer; 0 selects fully synchronous handoff).  Total
// in-flight records per stream are bounded by roughly buffer × batch.
func WithBuffer(n int) Option {
	return func(e *runEnv) {
		if n >= 0 {
			e.buf = n
		}
	}
}

// DefaultStreamBatch is the stream batch size B applied when WithStreamBatch
// does not select one.  Flushing is adaptive (see stream.go), so a larger B
// never delays a record behind traffic that is not coming — it only lets hot
// streams amortize channel synchronization B-fold.
const DefaultStreamBatch = 8

// WithStreamBatch sets the stream batch size B: the maximum number of items
// (records and markers) a stream writer coalesces into one frame, i.e. one
// channel synchronization.  1 restores unbatched per-record handoff;
// markers and idle inputs always flush early, so deterministic-merge
// liveness and low-load latency are independent of B.
func WithStreamBatch(n int) Option {
	return func(e *runEnv) {
		if n >= 1 {
			e.batch = n
		}
	}
}

// WithTracer installs a stream observer.
func WithTracer(t Tracer) Option {
	return func(e *runEnv) { e.tracer = t }
}

// WithErrorHandler installs a callback invoked for runtime errors (records
// that cannot be routed, failing tag expressions, panicking boxes).  Errors
// are additionally counted under "runtime.errors".
func WithErrorHandler(f func(error)) Option {
	return func(e *runEnv) { e.onError = f }
}

// WithMaxStarDepth caps the unfolding depth of serial replication (default
// 1 << 20); records that would unfold deeper are reported as errors and
// dropped.
func WithMaxStarDepth(n int) Option {
	return func(e *runEnv) {
		if n > 0 {
			e.maxDepth = n
		}
	}
}

// WithBoxWorkers sets the run's box concurrency width W: every box node
// that does not pin its own (NewBoxConcurrent) runs up to W invocations of
// its (stateless) box function at a time from its first record on, with
// output order preserved by the reorder stage of the box engine (see
// boxengine.go); 1 is strictly sequential invocation.  Without the option
// the engine chooses per box: sequential on the node's own goroutine until
// the box function's measured service time repays the hand-off to
// concurrent invocation, then up to GOMAXPROCS at a time.
func WithBoxWorkers(n int) Option {
	return func(e *runEnv) {
		if n > 0 {
			e.boxWorkers = n
		}
	}
}

// WithMaxSplitWidth caps the number of replicas of parallel replication
// (default 1 << 20); the tag value is folded into the cap by modulo, which
// mirrors the paper's throttling filter semantics.
func WithMaxSplitWidth(n int) Option {
	return func(e *runEnv) {
		if n > 0 {
			e.maxWidth = n
		}
	}
}
