package core

import "fmt"

// splitNode is parallel replication A!!<tag>: an indexed family of replicas
// of A connected in parallel.  Every incoming record must carry the index
// tag; its value selects the replica, and any two records with the same tag
// value are guaranteed to reach the same replica (§4).  Replicas are created
// on demand and live until the run ends: "split.<name>.replicas" counts the
// replicas a run created.
type splitNode struct {
	label   string
	det     bool
	operand Node
	tag     string
	tagID   labelID // tag, interned

	// Stat keys, concatenated once at construction: replica accounting runs
	// per replica and must not build strings.
	kReplicas, kWidth, kUntagged string
	statKeys
}

func newSplit(label string, det bool, operand Node, tag string) *splitNode {
	n, k := &splitNode{label: label, det: det, operand: operand, tag: tag, tagID: internLabel(tag)}, "split."+label
	n.kReplicas, n.kWidth, n.kUntagged = n.counter(k+".replicas"), n.mark(k+".width"), n.counter(k+".untagged")
	return n
}

// Split builds the nondeterministic parallel replicator, the paper's
// A !! <tag>: outputs merge as soon as they are produced.
func Split(operand Node, tag string) Node {
	return newSplit(autoName("split"), false, operand, tag)
}

// SplitDet builds the deterministic parallel replicator A ! <tag>: the
// merged output preserves the causal order of the inputs.
func SplitDet(operand Node, tag string) Node {
	return newSplit(autoName("split"), true, operand, tag)
}

// NamedSplit is Split with an explicit stats label, so experiments can read
// "split.<name>.replicas" (used to verify the paper's ≤9-replica bound and
// the %4 throttling of Fig. 3).
func NamedSplit(name string, operand Node, tag string) Node {
	return newSplit(name, false, operand, tag)
}

// NamedSplitDet is SplitDet with an explicit stats label.
func NamedSplitDet(name string, operand Node, tag string) Node {
	return newSplit(name, true, operand, tag)
}

func (n *splitNode) name() string { return n.label }

func (n *splitNode) String() string {
	op := " !! "
	if n.det {
		op = " ! "
	}
	return "(" + n.operand.String() + op + "<" + n.tag + ">)"
}

func (n *splitNode) sig() (RecType, RecType) {
	opIn, opOut := n.operand.sig()
	in := make(RecType, len(opIn))
	for i, v := range opIn {
		in[i] = v.Union(NewVariant(Tag(n.tag)))
	}
	if len(in) == 0 {
		in = RecType{NewVariant(Tag(n.tag))}
	}
	return in, opOut
}

// foldKey maps a tag value onto the replica key: folded into the run's width
// cap by modulo (records with equal tag values still share a replica).
func foldKey(v, maxWidth int) int {
	key := v % maxWidth
	if key < 0 {
		key += maxWidth
	}
	return key
}

func (n *splitNode) run(env *runEnv, in *streamReader, out *streamWriter) {
	n.start(env).run(env, in, out)
}

// splitRun is one instance of a split: its fanout, its replicas by key and
// their count and width, the body it steps them as, and the index tag's slot
// in the latest record's shape (-1: none).
type splitRun struct {
	fanout
	n               *splitNode
	byKey           map[int]*branchPort
	body            *segment
	replicas, width *statCell
	last            *shape
	slot            int
}

func (n *splitNode) start(env *runEnv) *fanout {
	r := &splitRun{n: n, byKey: map[int]*branchPort{}, body: env.spines.body(n.operand), slot: -1,
		width: env.stats.cell(statKey{n.kWidth, maxKind})}
	r.fanout = fanout{env: env, det: n.det, inst: r}
	return &r.fanout
}

func (r *splitRun) dispatch(rec *Record) bool {
	n, env := r.n, r.env
	if sh := rec.shape; sh != r.last {
		r.last = sh
		r.slot, _ = sh.tagSlotID(n.tagID)
	}
	if r.slot < 0 {
		env.error(fmt.Errorf("core: split %s: record %s lacks index tag <%s>",
			n.label, rec, n.tag))
		env.stats.Add(n.kUntagged, 1)
		releaseRecord(rec) // dropped, not forwarded
		return true
	}
	key := foldKey(rec.tvals[r.slot], env.maxWidth)
	port := r.byKey[key]
	if port == nil {
		env.stats.held(&r.replicas, n.kReplicas).Add(1)
		atomicMax(r.width, int64(len(r.byKey)+1))
		port = r.addBranch(n.operand, r.body)
		r.byKey[key] = port
	}
	return r.route(port, rec)
}
