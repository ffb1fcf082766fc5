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
// A stat is an atomic cell at a dense index.  The index space starts with a
// key table shared read-only — a run's is its plan's (Compile), NewStats' the
// run-wide keys — where a look-up takes no lock and inserts nothing; a key it
// does not list extends the collector's own table, under the mutex.  A
// counter is reported once looked up, a high-water mark once above zero, so
// reads never add a key (DESIGN §4, "Counters").
type Stats struct {
	keys  *statTable
	cells []statCell // keys' cells, then their looked-up bits, a word per 64
	mu    sync.Mutex // guards more
	more  statTable
	first [64]statCell // cells' backing for a table of up to 63 keys
}

type statCell = atomic.Int64

// statKey names a counter or, max, a high-water mark (rendered "<name>.max").
type statKey struct {
	name string
	max  bool
}

const maxKind = true

// statTable indexes keys densely, in the order they were added.  An
// extension holds its cells, one allocation each: a site may hold one.
type statTable struct {
	index [2]map[string]int // counters', marks' (btoi(max)), by name: the map's string fast path
	keys  []statKey
	cells []*statCell
}

func (t *statTable) add(k statKey) int {
	m := &t.index[btoi(k.max)]
	i, ok := (*m)[k.name]
	if !ok {
		if *m == nil {
			*m = map[string]int{}
		}
		i, (*m)[k.name], t.keys = len(t.keys), len(t.keys), append(t.keys, k)
	}
	return i
}

// statKeys are the stat keys a node or a spine's fused segments count
// under, listed where they are named (counter, mark): Compile puts the list of
// every node it walks in the plan's table.
type statKeys []statKey

// counter lists name as a counter and returns it; mark, as a high-water mark.
func (l *statKeys) counter(name string) string { *l = append(*l, statKey{name: name}); return name }
func (l *statKeys) mark(name string) string    { *l = append(*l, statKey{name, maxKind}); return name }

// keyList is what l lists.  A node that counts embeds its statKeys.
func (l statKeys) keyList() statKeys { return l }

// The run-wide keys, at these indices in every table (runKeys).
const (
	statErrors = iota
	statDiscarded
	statUntaken
	statFrames
	statRecords
	statFrameHWM
)

var runKeys = func() (t statTable) {
	for _, k := range [...]string{"runtime.errors", "stream.discarded", "input.untaken",
		"stream.frames", "stream.records", "stream.frame.hwm"} {
		t.add(statKey{k, k == "stream.frame.hwm"}) // the one mark
	}
	return t
}()

// init makes s a collector over keys.
func (s *Stats) init(keys *statTable) *Stats {
	s.keys, s.cells = keys, slots(s.first[:], len(keys.keys)+(len(keys.keys)+63)/64)
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
func NewStats() *Stats { return new(Stats).init(&runKeys) }

// at is the table's cell i, marked looked up.
func (s *Stats) at(i int) *statCell {
	if w, bit := &s.cells[len(s.keys.keys)+i/64], int64(1)<<(i%64); w.Load()&bit == 0 {
		w.Or(bit)
	}
	return &s.cells[i]
}

// cell returns k's cell, made at first use if the table does not list k.
func (s *Stats) cell(k statKey) *statCell {
	if i, ok := s.keys.index[btoi(k.max)][k.name]; ok {
		return s.at(i)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := s.more.add(k); i < len(s.more.cells) {
		return s.more.cells[i]
	}
	s.more.cells = append(s.more.cells, new(statCell))
	return s.more.cells[len(s.more.cells)-1]
}

// held returns the counter cell *c, which belongs to one goroutine, looking
// it up under key at the first count — not before, so a key nobody counted is
// never reported.
func (s *Stats) held(c **statCell, key string) *statCell {
	if *c == nil {
		*c = s.cell(statKey{name: key})
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

// Merge folds another collector's values into s: counters are added,
// maxima are maximised.  Both collectors remain usable.
func (s *Stats) Merge(o *Stats) {
	o.each(func(k statKey, v int64) {
		if c := s.cell(k); k.max {
			atomicMax(c, v)
		} else {
			c.Add(v)
		}
	})
}

// Add increments a counter and returns the new value.
func (s *Stats) Add(key string, delta int64) int64 { return s.cell(statKey{name: key}).Add(delta) }

// SetMax records v as a high-water mark for key.
func (s *Stats) SetMax(key string, v int64) { atomicMax(s.cell(statKey{key, maxKind}), v) }

// Counter returns the current value of a counter.
func (s *Stats) Counter(key string) int64 { return s.read(statKey{name: key}) }

// Max returns the recorded high-water mark for key.
func (s *Stats) Max(key string) int64 { return s.read(statKey{key, maxKind}) }

// read is the value of k's cell, 0 if it has none.
func (s *Stats) read(k statKey) int64 {
	if i, ok := s.keys.index[btoi(k.max)][k.name]; ok {
		return s.cells[i].Load()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.more.index[btoi(k.max)][k.name]; ok {
		return s.more.cells[i].Load()
	}
	return 0
}

// each visits what the collector reports: every counter looked up, and
// every high-water mark above zero (a mark nobody raised is no mark).  No
// lock is held while f runs: more is only appended to, so what of it was seen
// under the lock stays as it was.
func (s *Stats) each(f func(k statKey, v int64)) {
	n := len(s.keys.keys)
	for i, k := range s.keys.keys {
		if v := s.cells[i].Load(); k.max && v > 0 || !k.max && s.cells[n+i/64].Load()&(1<<(i%64)) != 0 {
			f(k, v)
		}
	}
	s.mu.Lock()
	more, cells := s.more.keys, s.more.cells
	s.mu.Unlock()
	for i, k := range more {
		if v := cells[i].Load(); !k.max || v > 0 {
			f(k, v)
		}
	}
}

// Snapshot returns all counters (maxima suffixed ".max") as a plain map.
func (s *Stats) Snapshot() map[string]int64 {
	out := map[string]int64{}
	s.each(func(k statKey, v int64) {
		if k.max {
			k.name += ".max"
		}
		out[k.name] = v
	})
	return out
}

// Keys returns the sorted counter keys (for deterministic reports).
func (s *Stats) Keys() []string {
	var keys []string
	s.each(func(k statKey, _ int64) {
		if !k.max {
			keys = append(keys, k.name)
		}
	})
	sort.Strings(keys)
	return keys
}

// SumPrefix sums all counters whose key starts with the given prefix.
func (s *Stats) SumPrefix(prefix string) (total int64) {
	s.each(func(k statKey, v int64) {
		if !k.max && strings.HasPrefix(k.name, prefix) {
			total += v
		}
	})
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

	workers workers // every goroutine of the run (spawn, worker.go)
	// blk is the block the run's fixed state is cut from (newRun): nil for a
	// bare transport test's.
	blk *runBlock
}

// err returns the first runtime error reported so far.
func (e *runEnv) err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.firstErr
}

func (e *runEnv) error(err error) {
	e.stats.at(statErrors).Add(1)
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
