package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
)

// Stats collects named counters and high-water marks from a running network.
// Keys are structured as "<nodekind>.<nodename>.<metric>", e.g.
// "box.solveOneLevel.calls", "star.solve_loop.replicas",
// "split.width.replicas".  Stats are safe for concurrent use.
type Stats struct {
	mu       sync.Mutex
	counters map[string]int64
	maxima   map[string]int64

	// The transport-plane keys are preregistered as atomics: every stream
	// writer folds its frame/record tallies in on close (and the boundary
	// writer on every direct send), so these are the collector's hottest
	// keys by far.  Routing them around the mutex keeps a run with
	// thousands of short-lived streams (deep split/star unfoldings) off
	// the map lock; Snapshot, Counter, Keys and friends fold them back in,
	// so the external Stats shape is unchanged.
	hotFrames  atomic.Int64 // "stream.frames"
	hotRecords atomic.Int64 // "stream.records"
	hotHWM     atomic.Int64 // "stream.frame.hwm" (a maximum, not a sum)

	// hot holds additional preregistered atomic counters, keyed by stat
	// name — per-fused-segment record counters above all.  The map is built
	// by preregister before a run's goroutines launch and is read-only
	// afterwards, so lookups are lock-free.
	hot map[string]*atomic.Int64
}

// The preregistered hot-counter keys.
const (
	statStreamFrames  = "stream.frames"
	statStreamRecords = "stream.records"
	statFrameHWM      = "stream.frame.hwm"
)

func newStats() *Stats {
	return &Stats{counters: map[string]int64{}, maxima: map[string]int64{}}
}

// atomicMax raises a to at least v.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// preregister installs lock-free atomic counters for keys whose traffic is
// known ahead of a run — Plan.Start calls it with the plan's fused-segment
// keys before any run goroutine launches.  It must not be called once the
// collector is in concurrent use: the hot map is immutable thereafter, which
// is exactly what makes its reads fence-free.
func (s *Stats) preregister(keys []string) {
	if len(keys) == 0 {
		return // nothing fused: the nil map reads as empty
	}
	s.hot = make(map[string]*atomic.Int64, len(keys))
	for _, k := range keys {
		s.hot[k] = new(atomic.Int64)
	}
}

// NewStats returns an empty, usable Stats collector.  The runtime allocates
// its own per-run collector in Start; NewStats exists for aggregators (such
// as the session service) that fold many runs' statistics into one.
func NewStats() *Stats { return newStats() }

// Merge folds another collector's snapshot into s: counters are added,
// maxima are maximised.  Both collectors remain usable.
func (s *Stats) Merge(o *Stats) {
	o.mu.Lock()
	counters := make(map[string]int64, len(o.counters))
	for k, v := range o.counters {
		counters[k] = v
	}
	maxima := make(map[string]int64, len(o.maxima))
	for k, v := range o.maxima {
		maxima[k] = v
	}
	o.mu.Unlock()
	s.hotFrames.Add(o.hotFrames.Load())
	s.hotRecords.Add(o.hotRecords.Load())
	atomicMax(&s.hotHWM, o.hotHWM.Load())
	for k, c := range o.hot {
		if v := c.Load(); v != 0 {
			s.Add(k, v)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range counters {
		s.counters[k] += v
	}
	for k, v := range maxima {
		if v > s.maxima[k] {
			s.maxima[k] = v
		}
	}
}

// Add increments a counter and returns the new value.
func (s *Stats) Add(key string, delta int64) int64 {
	switch key {
	case statStreamFrames:
		return s.hotFrames.Add(delta)
	case statStreamRecords:
		return s.hotRecords.Add(delta)
	}
	if c := s.hot[key]; c != nil {
		return c.Add(delta)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters[key] += delta
	return s.counters[key]
}

// SetMax records v as a high-water mark for key.
func (s *Stats) SetMax(key string, v int64) {
	if key == statFrameHWM {
		atomicMax(&s.hotHWM, v)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v > s.maxima[key] {
		s.maxima[key] = v
	}
}

// Counter returns the current value of a counter.
func (s *Stats) Counter(key string) int64 {
	switch key {
	case statStreamFrames:
		return s.hotFrames.Load()
	case statStreamRecords:
		return s.hotRecords.Load()
	}
	if c := s.hot[key]; c != nil {
		return c.Load()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[key]
}

// Max returns the recorded high-water mark for key.
func (s *Stats) Max(key string) int64 {
	if key == statFrameHWM {
		return s.hotHWM.Load()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxima[key]
}

// hotKV is one nonzero hot counter, for the map-shaped accessors.
type hotKV struct {
	key string
	val int64
}

// hotSnapshot lists the nonzero hot counters (maxima excluded), so a run
// that never touched the transport plane reports no transport keys, exactly
// as before.
func (s *Stats) hotSnapshot() []hotKV {
	var out []hotKV
	if v := s.hotFrames.Load(); v != 0 {
		out = append(out, hotKV{statStreamFrames, v})
	}
	if v := s.hotRecords.Load(); v != 0 {
		out = append(out, hotKV{statStreamRecords, v})
	}
	for k, c := range s.hot {
		if v := c.Load(); v != 0 {
			out = append(out, hotKV{k, v})
		}
	}
	return out
}

// Snapshot returns all counters (maxima suffixed ".max") as a plain map.
func (s *Stats) Snapshot() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.counters)+len(s.maxima)+3)
	for k, v := range s.counters {
		out[k] = v
	}
	for k, v := range s.maxima {
		out[k+".max"] = v
	}
	for _, kv := range s.hotSnapshot() {
		out[kv.key] = kv.val
	}
	if v := s.hotHWM.Load(); v != 0 {
		out[statFrameHWM+".max"] = v
	}
	return out
}

// Keys returns the sorted counter keys (for deterministic reports).
func (s *Stats) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.counters)+2)
	for k := range s.counters {
		keys = append(keys, k)
	}
	for _, kv := range s.hotSnapshot() {
		keys = append(keys, kv.key)
	}
	sort.Strings(keys)
	return keys
}

// SumPrefix sums all counters whose key starts with the given prefix.
func (s *Stats) SumPrefix(prefix string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for k, v := range s.counters {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			total += v
		}
	}
	for _, kv := range s.hotSnapshot() {
		if k := kv.key; len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			total += kv.val
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
	buf        int          // stream buffer capacity, in frames
	batch      int          // stream batch size B (items per frame, >= 1)
	levelSeq   atomic.Int64 // deterministic-combinator level ids
	maxDepth   int          // serial replication unfolding cap
	maxWidth   int          // parallel replication width cap
	boxWorkers int          // WithBoxWorkers: in-flight invocation cap per box node, 0 when not given
	// autoWidth is the width a box nobody gave a width may grow to once
	// the engine has measured it as worth it: GOMAXPROCS at Start.
	autoWidth int
	// spines is the plan's grouping: for every serial spine of its tree the
	// parts that run on a goroutine each (fuse.go).  Read-only.
	spines map[*serialNode][]runner

	// firstErr records the first runtime error of the run (Handle.Err).
	errMu    sync.Mutex
	firstErr error
}

// err returns the first runtime error reported so far.
func (e *runEnv) err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.firstErr
}

func (e *runEnv) newLevel() int { return int(e.levelSeq.Add(1)) }

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
