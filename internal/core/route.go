package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
)

// Precomputed routing (the compile-then-run hot path).
//
// The paper's best-match dispatch (§4) is a property of the *network*: which
// branch a record takes depends only on the record's type (its label set)
// and, for guarded filters, on its tag values.  The per-branch accepted
// types are static, so the expensive part of routing — scoring the record
// against every branch's multivariant input type — can be computed once per
// record *shape* and reused for every record of that shape, across every
// run sharing the node (service sessions above all).
//
// routeTable is that artifact for one parallel combinator: per-branch
// accepted types split into a statically scorable part and guard-bearing
// filter branches, plus a shape-keyed memo of dispatch decisions.  A star's
// exit verdicts and the slot programs of boxes, filters and synchrocells
// (prog.go) are memoized the same way.  All are pure functions of the node
// (never of a run), so they live on the node itself, entries compiled on first
// sight of each shape, and every dispatcher and stage fronts its memo with the
// entry of the latest shape it saw.

// maxMemoEntries caps every memo: networks see a handful of record shapes in
// practice (no memo of the workload or sudoku nets' tests holds more than 16),
// but a pathological workload could synthesize fresh labels per record;
// beyond the cap decisions are computed without being stored.  A store copies
// the memo, so the cap also bounds what filling one costs.
const maxMemoEntries = 1 << 8

// memo caches one V per key, up to maxMemoEntries of them, in a typed map that
// is copied on write and published whole: a load is one atomic read and one
// map probe, with no lock and no interface to hash or unbox.  Safe for
// concurrent use; a key is written once.  A shape's transitions (shape.go) are
// one; a shapeMemo keys on the record's interned shape pointer.
type memo[K comparable, V any] struct {
	m  atomic.Pointer[map[K]V]
	mu sync.Mutex // serializes stores
}

// shapeMemo is what a node learns per record shape: a pure function of the
// node, shared by all runs.
type shapeMemo[V any] = memo[*shape, V]

func (m *memo[K, V]) load(k K) (v V, ok bool) {
	if p := m.m.Load(); p != nil {
		v, ok = (*p)[k]
	}
	return v, ok
}

// store memoizes v for k and returns the value to use from now on: v, or
// what another goroutine stored first.  Past the cap nothing is stored and v
// is still right, just computed again next time.
func (m *memo[K, V]) store(k K, v V) V {
	m.mu.Lock()
	defer m.mu.Unlock()
	var old map[K]V
	if p := m.m.Load(); p != nil {
		old = *p
	}
	if prev, ok := old[k]; ok {
		return prev
	}
	if len(old) < maxMemoEntries {
		next := make(map[K]V, len(old)+1)
		maps.Copy(next, old)
		next[k] = v
		m.m.Store(&next)
	}
	return v
}

// ErrNoRoute is the sentinel under every routing failure of parallel
// composition: a record whose type matches no branch.  The concrete error is
// a *NoRouteError carrying the record's variant and the branch types.
var ErrNoRoute = errors.New("core: record matches no parallel branch")

// NoRouteError reports one unroutable record: it carries the parallel
// combinator's identity, the record's variant (its label set), and the
// inferred accepted input type of every branch, so the failure is
// diagnosable without re-running under a tracer.  It unwraps to ErrNoRoute.
// A network accepted by Compile never produces it for records within the
// inferred input type.
type NoRouteError struct {
	Net      string    // the parallel combinator's label
	Record   string    // the record, rendered
	Shape    Variant   // the record's variant (label set)
	Branches []RecType // per-branch accepted input types, in branch order
}

func (e *NoRouteError) Error() string {
	return fmt.Sprintf("core: parallel %s: record %s (variant %s) matches no branch %v",
		e.Net, e.Record, e.Shape, e.Branches)
}

func (e *NoRouteError) Unwrap() error { return ErrNoRoute }

// guardedBranch is a parallel branch whose routing score depends on tag
// values, not only on the record's shape: a filter with a tag guard.
type guardedBranch struct {
	idx     int
	pattern Pattern
}

// dispatchEntry is the memoized routing decision for one record shape:
// the best static score with its tied branches, plus the guarded branches
// whose variant the shape satisfies (their guards still evaluate per
// record).  For the common all-static case dispatch is a map lookup and a
// slice index.
type dispatchEntry struct {
	best  int         // best static score (-1: no static branch matches)
	ties  []int       // static branches scoring best, ascending
	cands []guardCand // guarded branches compatible with the shape, ascending
}

type guardCand struct {
	idx   int
	score int
	guard *tagProg // compiled against the entry's shape
}

// routeTable is the precomputed dispatch table of one parallel combinator.
type routeTable struct {
	det    bool
	accept []RecType // per-branch accepted input type (diagnostics, NoRouteError)
	static []RecType // statically scorable accepted type; nil for guarded branches
	gb     []guardedBranch
	shapeMemo[*dispatchEntry]
}

// buildRouteTable compiles the branch list of a parallel combinator.
func buildRouteTable(det bool, branches []Node) *routeTable {
	t := &routeTable{
		det:    det,
		accept: make([]RecType, len(branches)),
		static: make([]RecType, len(branches)),
	}
	for i, b := range branches {
		if f, ok := b.(*filterNode); ok && f.spec.Pattern.Guard != nil {
			// A guarded filter only attracts records its guard admits;
			// the variant part is still static and memoizes by shape.
			t.gb = append(t.gb, guardedBranch{idx: i, pattern: f.spec.Pattern})
			t.accept[i] = RecType{f.spec.Pattern.Variant}
			continue
		}
		in, _ := b.sig()
		t.accept[i] = in
		t.static[i] = in
	}
	return t
}

// entry returns (building and memoizing on demand) the dispatch entry for a
// record shape.
func (t *routeTable) entry(sh *shape) *dispatchEntry {
	if e, ok := t.load(sh); ok {
		return e
	}
	return t.store(sh, t.buildEntry(sh))
}

// routing is one dispatcher's state of its table: the rotation counter of
// nondeterministic ties — "one is selected non-deterministically" among
// equally-scored branches — and the entry of the latest record's shape, so a
// stream of one shape finds it by a pointer compare.
type routing struct {
	rr   int
	last *shape
	e    *dispatchEntry
}

// buildEntry scores one shape against every branch's static type.
func (t *routeTable) buildEntry(sh *shape) *dispatchEntry {
	shape := sh.variant
	e := &dispatchEntry{best: -1}
	for i, st := range t.static {
		if st == nil {
			continue
		}
		s := -1
		for _, v := range st {
			if len(v) > s && v.SubsetOf(shape) {
				s = len(v)
			}
		}
		if s < 0 {
			continue
		}
		switch {
		case s > e.best:
			e.best, e.ties = s, append(e.ties[:0], i)
		case s == e.best:
			e.ties = append(e.ties, i)
		}
	}
	for _, g := range t.gb {
		if b := g.pattern.bind(sh); b.admits {
			e.cands = append(e.cands, guardCand{idx: g.idx, score: len(g.pattern.Variant), guard: b.guard})
		}
	}
	return e
}

// dispatch picks the branch for one record: the memoized static decision,
// refined by evaluating the guards of shape-compatible guarded branches.
// r is the calling dispatcher's state; -1 means no branch accepts the record.
func (t *routeTable) dispatch(rec *Record, r *routing) int {
	if r.last != rec.shape {
		r.last, r.e = rec.shape, t.entry(rec.shape)
	}
	e := r.e
	best, ties := e.best, e.ties
	if len(e.cands) > 0 {
		var extra []int
		for _, c := range e.cands {
			if c.score < best {
				continue // cannot win even if the guard passes
			}
			if !c.guard.holds(rec) {
				continue
			}
			if c.score > best {
				best, ties, extra = c.score, nil, extra[:0]
			}
			extra = append(extra, c.idx)
		}
		if len(extra) > 0 { // guarded branches that tie with the static ones: one ascending list
			ties = append(slices.Clone(ties), extra...)
			slices.Sort(ties)
		}
	}
	if best < 0 || len(ties) == 0 {
		return -1
	}
	if t.det || len(ties) == 1 {
		// Deterministic ties resolve to the leftmost branch.
		return ties[0]
	}
	pick := ties[r.rr%len(ties)]
	r.rr++
	return pick
}
