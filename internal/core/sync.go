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
	return &syncNode{label: name, patterns: patterns,
		kFired: "sync." + name + ".fired", kStarved: "sync." + name + ".starved"}
}

func (n *syncNode) name() string { return n.label }

func (n *syncNode) String() string {
	parts := make([]string, len(n.patterns))
	for i, p := range n.patterns {
		parts[i] = p.String()
	}
	return "[| " + strings.Join(parts, ", ") + " |]"
}

func (n *syncNode) sig(*checker) (RecType, RecType) {
	in := make(RecType, len(n.patterns))
	merged := Variant{}
	for i, p := range n.patterns {
		in[i] = p.Variant
		merged = merged.Union(p.Variant)
	}
	return in, RecType{merged}
}

func (n *syncNode) run(env *runEnv, in *streamReader, out *streamWriter) {
	defer out.close()
	in.autoFlush(out)
	storage := make([]*Record, len(n.patterns))
	fired := false
	forward := func(it item) bool { return out.send(it) }
	for {
		it, ok := in.recv()
		if !ok {
			break
		}
		if it.mk != nil || fired {
			if !forward(it) {
				in.Discard()
				return
			}
			continue
		}
		rec := it.rec
		env.trace(n.label, "in", rec)
		stored := false
		for i, p := range n.patterns {
			if storage[i] == nil && p.Matches(rec) {
				storage[i] = rec
				stored = true
				break
			}
		}
		if !stored {
			if !forward(it) {
				in.Discard()
				return
			}
			continue
		}
		complete := true
		for _, s := range storage {
			if s == nil {
				complete = false
				break
			}
		}
		if !complete {
			continue
		}
		// Merge: earlier patterns take precedence on label clashes.
		merged := storage[0].copyInto(acquireRecord())
		for _, s := range storage[1:] {
			inheritInto(merged, s, merged.Labels())
		}
		// The stored records were consumed by the merge; return them.
		for _, s := range storage {
			releaseRecord(s)
		}
		env.trace(n.label, "out", merged)
		env.stats.Add(n.kFired, 1)
		fired = true
		storage = nil
		if !out.sendRecord(merged) {
			in.Discard()
			return
		}
	}
	// Unfired storage at stream end is discarded; count it so tests and
	// users can detect starved synchrocells.
	for _, s := range storage {
		if s != nil {
			env.stats.Add(n.kStarved, 1)
			releaseRecord(s)
		}
	}
}
