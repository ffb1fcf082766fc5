package core

import "strings"

// syncNode is an S-Net synchrocell [| {p1}, {p2}, ... |] — part of the
// S-Net language (Grelck/Scholz/Shafarenko, IFL'06) though not exercised by
// the paper's sudoku networks; provided as the language's join primitive.
//
// A synchrocell waits until it has seen one record matching each of its
// patterns, keeping the first match per pattern; it then emits the merger of
// the stored records (labels of earlier patterns take precedence) and
// becomes a transparent identity for the rest of its lifetime.  Records that
// match no unfilled pattern pass through unchanged.
type syncNode struct {
	label    string
	patterns []Pattern
	// Stat keys, concatenated once: a replicated join (one cell per replica)
	// fires or starves once per replica and must not build strings.
	kFired, kStarved string
	statKeys
	// admits caches the patterns bound to each record shape; merges finds the
	// merge program of the shapes a firing has stored.  Both are pure functions
	// of the patterns, shared by every run.
	admits shapeMemo[[]boundPattern]
	merges mergeTrie
	lone   // run: the cell on its own is a segment of one (fuse.go)
}

// mergeTrie maps the shapes of a firing's stored records, in pattern order, to
// the merge program for them: one level per pattern, the program at the last.
type mergeTrie struct {
	next shapeMemo[*mergeTrie]
	prog *mergeProg
}

// mergeProg builds the merger of stored records of known shapes (prog.go): the
// union layout and, per stored record, the moves of the labels no earlier one
// carries — earlier patterns take precedence on label clashes.
type mergeProg struct {
	shape *shape
	from  []slotCopies
}

// admitted is the cell's patterns bound to records of shape sh.
func (n *syncNode) admitted(sh *shape) []boundPattern {
	if a, ok := n.admits.load(sh); ok {
		return a
	}
	a := make([]boundPattern, len(n.patterns))
	for k, p := range n.patterns {
		a[k] = p.bind(sh)
	}
	return n.admits.store(sh, a)
}

// program returns the merge program for the stored records' shapes, compiling
// it and memoizing the path to it on first sight.
func (n *syncNode) program(stored []*Record) *mergeProg {
	t := &n.merges
	for k, s := range stored {
		next, ok := t.next.load(s.shape)
		if !ok {
			next = &mergeTrie{}
			if k == len(stored)-1 {
				next.prog = compileMerge(stored)
			}
			next = t.next.store(s.shape, next)
		}
		t = next
	}
	return t.prog
}

func compileMerge(stored []*Record) *mergeProg {
	union, seen := Variant{}, Variant{}
	for _, s := range stored {
		union = union.Union(s.shape.variant)
	}
	p := &mergeProg{shape: shapeForVariant(union), from: make([]slotCopies, len(stored))}
	for k, s := range stored {
		p.from[k] = copiesInto(p.shape, s.shape, func(l Label) bool { return !seen.Has(l) })
		seen = seen.Union(s.shape.variant)
	}
	return p
}

// Sync builds a synchrocell over the given patterns (at least two).
func Sync(patterns ...Pattern) Node {
	return NamedSync(autoName("sync"), patterns...)
}

// NamedSync is Sync with an explicit stats label, so experiments can read
// "sync.<name>.fired" / "sync.<name>.starved" counters and topologies carry
// a stable node name (used by the wavefront and divide-and-conquer workload
// suites, whose join cells are the measured artifact).
func NamedSync(name string, patterns ...Pattern) Node {
	if len(patterns) < 2 {
		panic("core: Sync needs at least two patterns")
	}
	n := &syncNode{label: name, patterns: patterns}
	n.kFired, n.kStarved = n.counter("sync."+name+".fired"), n.counter("sync."+name+".starved")
	n.alone(n)
	return n
}

func (n *syncNode) name() string { return n.label }

func (n *syncNode) String() string {
	parts := make([]string, len(n.patterns))
	for i, p := range n.patterns {
		parts[i] = p.String()
	}
	return "[| " + strings.Join(parts, ", ") + " |]"
}

func (n *syncNode) sig() (RecType, RecType) {
	in := make(RecType, len(n.patterns))
	merged := Variant{}
	for i, p := range n.patterns {
		in[i] = p.Variant
		merged = merged.Union(p.Variant)
	}
	return in, RecType{merged}
}

// step is the synchrocell as a stage (fuse.go) — the one stage that keeps
// records from step to step: the first match of each pattern is held until
// the last pattern fills, or the branch ends (segmentRun.end).
func (n *syncNode) step(x *segmentRun, i int, rec *Record) (*Record, bool) {
	h := &x.held[i]
	if h.fired {
		return rec, true
	}
	x.env.trace(n.label, "in", rec)
	if h.storage == nil {
		h.storage = slots(h.two[:], len(n.patterns))
	}
	stored, complete, admits := false, true, n.admitted(rec.shape)
	for k := range n.patterns {
		if !stored && h.storage[k] == nil && admits[k].matches(rec) {
			h.storage[k], stored = rec, true
		}
		complete = complete && h.storage[k] != nil
	}
	if !stored {
		return rec, true
	}
	if !complete {
		return nil, true
	}
	p := n.program(h.storage)
	merged := x.front.acquire(p.shape)
	for k, s := range h.storage {
		p.from[k].run(merged, s)
		x.front.releaseRecord(s) // consumed by the merge
	}
	x.env.trace(n.label, "out", merged)
	x.state[i].fired.n++
	*h = held{fired: true}
	return merged, true
}
