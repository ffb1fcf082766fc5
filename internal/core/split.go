package core

import "fmt"

// splitNode is parallel replication A!!<tag>: an indexed family of replicas
// of A connected in parallel.  Every incoming record must carry the index
// tag; its value selects the replica, and any two records with the same tag
// value are guaranteed to reach the same replica (§4).  Replicas are created
// on demand and reclaimed on demand: the in-band close protocol
// (NewReplicaClose / NewReplicaCloseAck) retires one replica in FIFO
// position with the data.  "split.<name>.replicas" is therefore a live
// gauge — it counts replicas currently running, not replicas ever created.
type splitNode struct {
	label   string
	det     bool
	operand Node
	tag     string
	tagID   labelID // tag, interned
	// uncapped exempts this split from the run's WithMaxSplitWidth modulo
	// folding — the session-multiplexing configuration, where distinct tag
	// values must never share a replica (SessionSplit).
	uncapped bool

	// Stat keys, concatenated once at construction: replica accounting runs
	// per replica (and per session on a shared engine) and must not build
	// strings.
	kReplicas, kWidth, kClosed, kUntagged string
}

func newSplit(label string, det bool, operand Node, tag string, uncapped bool) *splitNode {
	k := "split." + label
	return &splitNode{label: label, det: det, operand: operand, tag: tag, tagID: internLabel(tag), uncapped: uncapped,
		kReplicas: k + ".replicas", kWidth: k + ".width", kClosed: k + ".closed",
		kUntagged: k + ".untagged"}
}

// Split builds the nondeterministic parallel replicator, the paper's
// A !! <tag>: outputs merge as soon as they are produced.
func Split(operand Node, tag string) Node {
	return newSplit(autoName("split"), false, operand, tag, false)
}

// SplitDet builds the deterministic parallel replicator A ! <tag>: the
// merged output preserves the causal order of the inputs.
func SplitDet(operand Node, tag string) Node {
	return newSplit(autoName("split"), true, operand, tag, false)
}

// NamedSplit is Split with an explicit stats label, so experiments can read
// "split.<name>.replicas" (used to verify the paper's ≤9-replica bound and
// the %4 throttling of Fig. 3).
func NamedSplit(name string, operand Node, tag string) Node {
	return newSplit(name, false, operand, tag, false)
}

// NamedSplitDet is SplitDet with an explicit stats label.
func NamedSplitDet(name string, operand Node, tag string) Node {
	return newSplit(name, true, operand, tag, false)
}

// SessionSplit is NamedSplit exempted from the run's WithMaxSplitWidth
// modulo folding: distinct tag values always get distinct replicas.  It is
// the session-multiplexing combinator of the service layer — one replica of
// the wrapped network per live session — where folding two sessions onto
// one replica would mix their state and break the per-replica close
// protocol.  The replica count is bounded by the caller (the service's
// session cap), not by the run option.  Session replicas hold live client
// state between requests and are retired deterministically through the close
// protocol.
func SessionSplit(name string, operand Node, tag string) Node {
	return newSplit(name, false, operand, tag, true)
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
// cap by modulo (records with equal tag values still share a replica), or
// taken verbatim for session splits — sessions must never share a replica.
func foldKey(v int, uncapped bool, maxWidth int) int {
	if uncapped {
		return v
	}
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
// their gauge and width, the body it steps them as (none for session replicas,
// which hold live client state between requests, each at its own pace), and
// what the latest record's shape says: the index tag's slot (-1: none),
// whether it is a close record's.
type splitRun struct {
	fanout
	n               *splitNode
	byKey           map[int]*branchPort
	body            *segment
	replicas, width *statCell
	last            *shape
	slot            int
	closing         bool
}

func (n *splitNode) start(env *runEnv) *fanout {
	r := &splitRun{n: n, byKey: map[int]*branchPort{}, slot: -1, width: env.stats.maximum(n.kWidth)}
	if !n.uncapped {
		r.body = env.spines.body(n.operand)
	}
	r.fanout = fanout{env: env, det: n.det, inst: r}
	return &r.fanout
}

func (r *splitRun) dispatch(rec *Record) bool {
	n, env := r.n, r.env
	if sh := rec.shape; sh != r.last {
		// Only a shape with a reserved label can be a close record's: the
		// name is searched for in those alone.
		r.last, r.closing = sh, sh.reserved && IsReplicaClose(rec)
		r.slot, _ = sh.tagSlotID(n.tagID)
	}
	v, ok := 0, r.slot >= 0
	if ok {
		v = rec.tvals[r.slot]
	}
	key := foldKey(v, n.uncapped, env.maxWidth)
	if r.closing {
		// A close record lacking this split's index tag is addressed
		// to some other split: forward it downstream (merge order, not
		// FIFO with records still inside this split's replicas).
		if !ok {
			return r.emitDirect(rec)
		}
		// The splitter half of the close protocol for one key: close the
		// replica's input, drop it from the routing table, decrement the
		// live-replica gauge.  The acknowledgement record, if requested,
		// travels on as the drain barrier: the merger emits it after the
		// replica's last record — or at once when no replica exists.
		var sentinel *Record
		if wantsCloseAck(rec) {
			sentinel = rec
		} else {
			releaseRecord(rec) // consumed by the split itself
		}
		if port := r.byKey[key]; port != nil {
			delete(r.byKey, key)
			r.replicas.Add(-1)
			env.stats.Add(n.kClosed, 1)
			return r.retireBranch(port, sentinel)
		}
		return sentinel == nil || r.emitDirect(sentinel)
	}
	if !ok {
		env.error(fmt.Errorf("core: split %s: record %s lacks index tag <%s>",
			n.label, rec, n.tag))
		env.stats.Add(n.kUntagged, 1)
		releaseRecord(rec) // dropped, not forwarded
		return true
	}
	port := r.byKey[key]
	if port == nil {
		env.stats.held(&r.replicas, n.kReplicas).Add(1)
		atomicMax(r.width, int64(len(r.byKey)+1))
		port = r.addBranch(n.operand, r.body)
		r.byKey[key] = port
	}
	return r.route(port, rec)
}
