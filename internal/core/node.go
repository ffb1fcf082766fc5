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
	// sig returns the node's inferred type signature, bottom-up: what the
	// node accepts and produces by its own declaration, before the flow pass
	// (flow.go) says what reaches it.
	sig() (in, out RecType)
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

func (n *identityNode) sig() (RecType, RecType) {
	any := RecType{Variant{}}
	return any, any
}
