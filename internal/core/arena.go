package core

import (
	"sync"
	"sync/atomic"
)

// Arenas — the recycling half of the zero-allocation record plane.
//
// The stream transport owns two sync.Pool arenas: one for records, one for
// the []item slabs that back multi-item frames.  The life cycle follows the
// S-Net ownership discipline (exactly one component holds a record at a
// time), which gives every record a well-defined release point:
//
//   - acquire: runtime-internal producers — box emitters, filter outputs,
//     synchrocell merges, service ingress decoding — take records from the
//     arena instead of the heap;
//   - release: the component that consumes a record without forwarding it
//     returns it — boxes after invoking the user function (box functions see
//     bound argument values, never the record), filters after Apply,
//     synchrocells after firing, drop paths, and streamReader.Discard /
//     the service demux for records nobody will read;
//   - disown: records that cross the network boundary to user code
//     (Handle.Out, service egress) leave the arena's domain — they stay
//     plain GC-managed records.
//
// Records built with NewRecord are caller-owned and never pooled: releasing
// one is a no-op, so user code that holds on to its inputs (benchmark
// harnesses reuse whole input slices) is unaffected.
//
// Accounting is global and monotonic: acquired = recycled + disowned + live.
// The leak tests assert live returns to its baseline after a drained run, so
// a pooled-but-unreleased record is a test failure, not a silent slow leak.

var (
	recordPool = sync.Pool{New: func() any { return new(Record) }}

	poolAcquired atomic.Int64
	poolRecycled atomic.Int64
	poolDisowned atomic.Int64
)

// AcquireRecord returns an empty runtime-owned record from the arena.  It
// must be balanced by ReleaseRecord (or by crossing the network boundary,
// which disowns it); use NewRecord for caller-owned records.
func AcquireRecord() *Record { return (*arenaFront)(nil).acquire(emptyShape) }

// ReleaseRecord returns a runtime-owned record to the arena.  Caller-owned
// records (NewRecord) and nil are ignored.  Releasing the same record twice
// panics; using a record after releasing it nil-dereferences — both are
// ownership bugs the arena is designed to surface.
func ReleaseRecord(r *Record) { releaseRecord(r) }

func releaseRecord(r *Record) { (*arenaFront)(nil).releaseRecord(r) }

// arenaFront is the arena as one goroutine sees it between two waits for
// input.  A segment releases its input and acquires an output within one step,
// on one goroutine: the front keeps the last record released — emptied and
// poisoned like any other, so it holds released records only — and hands it
// straight back, going to recordPool on a miss, and tallies in plain integers
// what the ledger counts in atomics.  Its owner — an execution (fuse.go),
// folded by its loop or by the dispatcher stepping it (merge.go) — folds the
// tallies into the ledger before every input frame it takes, hence wherever it
// waits for input, and on its way out (drain): PoolStats is exact whenever the
// goroutine waits and at its end, at most one input frame behind in between.
// The nil front is the arena itself, counting in the ledger at once.
type arenaFront struct {
	spare              *Record
	acquired, recycled int64 // not yet in the ledger
}

// acquire takes a record from the arena and gives it the layout sh, its slots
// yet to be written.  Arena records keep their slot capacity across recycling,
// so after warm-up the resizes are free.
func (f *arenaFront) acquire(sh *shape) *Record {
	var o *Record
	if f == nil {
		poolAcquired.Add(1)
	} else {
		f.acquired++
		o, f.spare = f.spare, nil
	}
	if o == nil {
		o = recordPool.Get().(*Record)
		o.pooled = true
	}
	o.shape = sh
	if nf := len(sh.fields); cap(o.fvals) >= nf {
		o.fvals = o.fvals[:nf]
	} else {
		o.fvals = make([]any, nf)
	}
	if nt := len(sh.tags); cap(o.tvals) >= nt {
		o.tvals = o.tvals[:nt]
	} else {
		o.tvals = make([]int, nt)
	}
	return o
}

// releaseRecord gives r back, emptied and poisoned (and so named for snetvet's
// recordretain, which knows a release by this name).
func (f *arenaFront) releaseRecord(r *Record) {
	if r == nil || !r.pooled {
		return
	}
	if r.shape == nil {
		panic("core: record released twice")
	}
	r.shape = nil // poison: any use after release faults immediately
	clear(r.fvals)
	r.fvals = r.fvals[:0]
	r.tvals = r.tvals[:0]
	if f == nil {
		poolRecycled.Add(1)
	} else {
		f.recycled++
		r, f.spare = f.spare, r // the one kept before goes on to the pool
	}
	if r != nil {
		recordPool.Put(r)
	}
}

// fold adds the tallies to the ledger.
func (f *arenaFront) fold() {
	if f.acquired != 0 || f.recycled != 0 {
		poolAcquired.Add(f.acquired)
		poolRecycled.Add(f.recycled)
		f.acquired, f.recycled = 0, 0
	}
}

// drain is fold when the goroutine is done with the front: spare to the pool.
func (f *arenaFront) drain() {
	f.fold()
	if f.spare != nil {
		recordPool.Put(f.spare)
		f.spare = nil
	}
}

// disownRecord hands a runtime-owned record to user code: it will not be
// recycled, and the arena stops accounting for it.
func disownRecord(r *Record) {
	if r != nil && r.pooled {
		r.pooled = false
		poolDisowned.Add(1)
	}
}

// RecordPoolStats is a snapshot of the record arena's accounting.
type RecordPoolStats struct {
	Acquired int64 // records handed out by the arena
	Recycled int64 // records released back
	Disowned int64 // records handed to user code at the boundary
}

// Live reports how many arena records are currently held by the runtime.
func (s RecordPoolStats) Live() int64 { return s.Acquired - s.Recycled - s.Disowned }

// PoolStats snapshots the process-global record-arena counters.  The
// counters are monotonic; leak tests compare Live() across a drained run.
func PoolStats() RecordPoolStats {
	return RecordPoolStats{
		Acquired: poolAcquired.Load(),
		Recycled: poolRecycled.Load(),
		Disowned: poolDisowned.Load(),
	}
}

// Frame slabs.  Multi-item frames need a backing array per flush; recycling
// fixed-size slabs through a pool makes the batched hot path allocation-free
// for every batch size up to frameSlabCap.  Readers release a slab once the
// frame is fully consumed (finishFrame); larger batches fall back to plain
// allocation and are simply dropped to the GC.

const frameSlabCap = 64

var frameSlabPool = sync.Pool{New: func() any { return new([frameSlabCap]item) }}

// acquireFrameSlab returns an empty []item with capacity >= n; capacity
// frameSlabCap marks it recyclable.
func acquireFrameSlab(n int) []item {
	if n > frameSlabCap {
		return make([]item, 0, n)
	}
	p := frameSlabPool.Get().(*[frameSlabCap]item)
	return p[:0]
}

// releaseFrameSlab recycles a slab acquired from the pool; foreign slices
// (over-sized batches) are ignored.  The slab is cleared first so it retains
// no record pointers while pooled.
func releaseFrameSlab(s []item) {
	if cap(s) != frameSlabCap {
		return
	}
	s = s[:cap(s)]
	for i := range s {
		s[i] = item{}
	}
	frameSlabPool.Put((*[frameSlabCap]item)(s))
}
