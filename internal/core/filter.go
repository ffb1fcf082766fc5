package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// filterNode executes a FilterSpec as a network component.
type filterNode struct {
	label string
	spec  *FilterSpec
	// memo caches the pattern's variant check per record shape — the
	// filter's slice of the compile-then-run match tables.  A pure function
	// of the spec, shared by every run.
	memo *matchMemo
	// progs caches the spec compiled to a slot program per input shape
	// (filterspec.go); like the match memo it is a pure function of the
	// spec, shared by every run, and bounded by progCount so a pathological
	// shape churn cannot grow it without limit.
	progs     sync.Map // *shape -> *filterProg
	progCount atomic.Int64
	// Stat keys, concatenated once so per-record accounting never builds a
	// string.
	kNomatch, kErrors, kApplied string
}

// NewFilter wraps a filter specification as a node.  Records matching the
// pattern are rewritten into the specified output records (with flow
// inheritance of unconsumed labels); records that do not match are forwarded
// unchanged and counted under "filter.<name>.nomatch" — with a well-typed
// network this never happens.
func NewFilter(spec *FilterSpec) Node {
	if spec == nil {
		panic("core: NewFilter: nil spec")
	}
	label := autoName("filter")
	return &filterNode{label: label, spec: spec,
		memo:     newMatchMemo(spec.Pattern.Variant),
		kNomatch: "filter." + label + ".nomatch",
		kErrors:  "filter." + label + ".errors",
		kApplied: "filter." + label + ".applied"}
}

// FilterFrom parses a filter in the paper's notation and wraps it as a node.
func FilterFrom(src string) (Node, error) {
	spec, err := ParseFilter(src)
	if err != nil {
		return nil, err
	}
	return NewFilter(spec), nil
}

// MustFilter is FilterFrom panicking on error, for network literals.
func MustFilter(src string) Node {
	n, err := FilterFrom(src)
	if err != nil {
		panic(err)
	}
	return n
}

func (f *filterNode) name() string   { return f.label }
func (f *filterNode) String() string { return f.spec.String() }

func (f *filterNode) sig(*checker) (RecType, RecType) {
	return RecType{f.spec.Pattern.Variant}, f.spec.OutType()
}

// matches is the filter's pattern test with the variant half memoized by
// record shape.
func (f *filterNode) matches(rec *Record) bool {
	return f.memo.matches(f.spec.Pattern, rec)
}

// program returns the spec's slot program for the given input shape,
// compiling and memoizing it on first sight (capped like the routing
// memos; past the cap the program is still exact, just recompiled).
func (f *filterNode) program(sh *shape) *filterProg {
	if p, ok := f.progs.Load(sh); ok {
		return p.(*filterProg)
	}
	p := compileFilterProg(f.spec, sh)
	if f.progCount.Load() < maxMemoEntries {
		if prev, loaded := f.progs.LoadOrStore(sh, p); loaded {
			return prev.(*filterProg)
		}
		f.progCount.Add(1)
	}
	return p
}

func (f *filterNode) run(env *runEnv, in *streamReader, out *streamWriter) {
	defer out.close()
	in.autoFlush(out)
	var outsBuf []*Record // reused across records; outputs leave via send
	for {
		it, ok := in.recv()
		if !ok {
			return
		}
		if it.mk != nil {
			if !out.send(it) {
				in.Discard()
				return
			}
			continue
		}
		rec := it.rec
		env.trace(f.label, "in", rec)
		if !f.matches(rec) {
			env.stats.Add(f.kNomatch, 1)
			if !out.send(it) {
				in.Discard()
				return
			}
			continue
		}
		outs, err := f.program(rec.shape).apply(rec, outsBuf)
		if err != nil {
			env.error(fmt.Errorf("core: filter %s: %w", f.label, err))
			env.stats.Add(f.kErrors, 1)
			releaseRecord(rec) // dropped, not forwarded
			continue
		}
		if outs != nil {
			outsBuf = outs
		}
		env.stats.Add(f.kApplied, 1)
		// The input was consumed: its labels were rewritten or inherited into
		// fresh outputs, never aliased, so it returns to the arena now.
		releaseRecord(rec)
		for i, o := range outs {
			env.trace(f.label, "out", o)
			if !out.sendRecord(o) {
				// The failed record was already reclaimed by the transport's
				// cancellation path; outputs never handed to it are ours.
				for _, rest := range outs[i+1:] {
					releaseRecord(rest)
				}
				in.Discard()
				return
			}
		}
	}
}
