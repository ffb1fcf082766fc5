package core

import (
	"fmt"
	"sync/atomic"
)

// Node is a SISO stream component: a box, filter, synchrocell or combinator
// network.  All combinators preserve the SISO property (§4), so any Node can
// be used wherever a box can.  Nodes are blueprints: the same Node value can
// be started any number of times; all execution state lives in the run.
//
// Node is a sealed interface; construct nodes with NewBox, NewFilter,
// Serial, Parallel, Star, Split, Sync and Observe.
type Node interface {
	fmt.Stringer
	// name returns the node's stats/trace identity.
	name() string
	// run consumes in until it closes or the run is cancelled, writing
	// results to out; it must close out before returning, must forward
	// foreign control markers in FIFO position, and must hand in to
	// in.Discard() on every early-exit path so upstream senders never
	// block on a stream nobody reads.  The sequential leaves have no loop
	// of their own: their run is a segment of one stage (fuse.go).
	run(env *runEnv, in *streamReader, out *streamWriter)
	// sig returns the node's inferred type signature, collecting
	// diagnostics into c (which may be nil).
	sig(c *checker) (in, out RecType)
}

// nodeSeq numbers anonymous nodes for stable stats keys.
var nodeSeq atomic.Int64

func autoName(kind string) string {
	return fmt.Sprintf("%s#%d", kind, nodeSeq.Add(1))
}

// identityNode forwards records unchanged, optionally invoking an observer
// callback — the tappable-stream debugging facility motivated in §1.
type identityNode struct {
	label string
	fn    func(*Record)
	lone  // run: the tap on its own is a segment of one (fuse.go)
}

// Observe returns a transparent node that invokes fn for every record
// passing through.  It lets any stream in a network be observed individually
// without disturbing the computation; compose it serially where needed.
func Observe(label string, fn func(*Record)) Node {
	if label == "" {
		label = autoName("observe")
	}
	n := &identityNode{label: label, fn: fn}
	n.alone(n)
	return n
}

func (n *identityNode) name() string   { return n.label }
func (n *identityNode) String() string { return "observe(" + n.label + ")" }

func (n *identityNode) step(x *segmentRun, _ int, rec *Record) (*Record, bool) {
	x.env.trace(n.label, "in", rec)
	if n.fn != nil {
		n.fn(rec)
	}
	x.applied.n++
	return rec, true
}

func (n *identityNode) sig(*checker) (RecType, RecType) {
	any := RecType{Variant{}}
	return any, any
}

// hideNode strips a fixed set of tags from every record passing through —
// the tag-hiding component used to keep routing/multiplexing tags (session
// ids above all) out of sub-networks or egress streams.
type hideNode struct {
	label  string
	tags   []string
	hidden Variant // tags, as the labels flow inheritance does not carry on
	// progs caches, per input shape, the record without the hidden tags: the
	// rest of it handed on as by flow inheritance; nil for a shape that
	// carries none of them.
	progs shapeMemo[*outProg]
	lone  // run: the node on its own is a segment of one (fuse.go)
}

// HideTags returns a transparent node that deletes the given tags from every
// record.  Compose it serially where a tag must not travel further — e.g.
// after a session-multiplexing split, so downstream consumers never see the
// reserved session tag.  Absent tags are ignored; markers pass through.
func HideTags(tags ...string) Node {
	n := &hideNode{label: autoName("hide"), tags: tags, hidden: Variant{}}
	for _, tag := range tags {
		n.hidden[Tag(tag)] = struct{}{}
	}
	n.alone(n)
	return n
}

func (n *hideNode) name() string   { return n.label }
func (n *hideNode) String() string { return "hide(" + n.label + ")" }

func (n *hideNode) program(sh *shape) *outProg {
	p, ok := n.progs.load(sh)
	if !ok {
		if op, _ := layOut(sh, n.hidden, nil); op.shape != sh {
			p = &op
		}
		p = n.progs.store(sh, p)
	}
	return p
}

func (n *hideNode) step(x *segmentRun, i int, rec *Record) (*Record, bool) {
	st := &x.state[i]
	if st.shape != rec.shape {
		st.shape, st.hide = rec.shape, n.program(rec.shape)
	}
	if p := st.hide; p != nil {
		o := x.front.acquire(p.shape)
		p.run(o, rec)
		x.front.releaseRecord(rec)
		rec = o
	}
	x.applied.n++
	return rec, true
}

func (n *hideNode) sig(*checker) (RecType, RecType) {
	any := RecType{Variant{}}
	return any, any
}
