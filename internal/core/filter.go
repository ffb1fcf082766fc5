package core

import "fmt"

// filterNode executes a FilterSpec as a network component.
type filterNode struct {
	label string
	spec  *FilterSpec
	// progs caches the spec compiled to a slot program per input shape
	// (filterspec.go) — nil for a shape the pattern's variant does not admit.
	// A pure function of the spec, shared by every run.
	progs shapeMemo[*filterProg]
	// Stat keys, concatenated once so per-record accounting never builds a
	// string.
	kNomatch, kApplied, kErrors string
	lone                        // run: the filter on its own is a segment of one (fuse.go)
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
	f := &filterNode{label: label, spec: spec,
		kNomatch: "filter." + label + ".nomatch",
		kApplied: "filter." + label + ".applied",
		kErrors:  "filter." + label + ".errors"}
	f.alone(f)
	return f
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
func MustFilter(src string) Node { return must(FilterFrom(src)) }

func (f *filterNode) name() string   { return f.label }
func (f *filterNode) String() string { return f.spec.String() }

func (f *filterNode) sig() (RecType, RecType) {
	return RecType{f.spec.Pattern.Variant}, f.spec.OutType()
}

// program returns the spec's slot program for the given input shape,
// compiling and memoizing it on first sight; nil if the shape cannot match.
func (f *filterNode) program(sh *shape) *filterProg {
	if p, ok := f.progs.load(sh); ok {
		return p
	}
	return f.progs.store(sh, compileFilterProg(f.spec, sh))
}

// step applies the filter to one record.  A record the pattern does not
// match moves on unchanged; one it matches is consumed — its labels are
// rewritten or inherited into fresh outputs, never aliased — and returns to
// the arena before its outputs move on.
func (f *filterNode) step(x *segmentRun, i int, rec *Record) (*Record, bool) {
	env, st := x.env, &x.state[i]
	env.trace(f.label, "in", rec)
	if st.shape != rec.shape {
		st.shape, st.filter = rec.shape, f.program(rec.shape)
	}
	if st.filter == nil || !st.filter.guard.holds(rec) {
		env.stats.Add(f.kNomatch, 1)
		return rec, true
	}
	outs, err := st.filter.apply(&x.front, rec, st.outs)
	if err != nil {
		env.error(fmt.Errorf("core: filter %s: %w", f.label, err))
		env.stats.Add(f.kErrors, 1)
		x.front.releaseRecord(rec) // dropped, not forwarded
		return nil, true
	}
	if outs != nil {
		st.outs = outs[:0] // keep the backing, not the records
	}
	st.applied.n++
	x.applied.n++
	x.front.releaseRecord(rec)
	for k, o := range outs {
		env.trace(f.label, "out", o)
		if k == len(outs)-1 {
			return o, true // the last one moves on in the segment's loop
		}
		if !x.push(i+1, o) {
			// The failed record was already reclaimed where it failed;
			// outputs never handed on are ours.
			for _, rest := range outs[k+1:] {
				x.front.releaseRecord(rest)
			}
			return nil, false
		}
	}
	return nil, true
}
