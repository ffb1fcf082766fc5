package core

import (
	"fmt"
	"slices"
	"strings"
)

// The compile half of the compile-then-run API.
//
// A Node tree is an immutable blueprint; Compile turns it into a checked,
// inspectable Plan in two passes.  One walk over the blueprint (walk) builds
// the typed tree — a GraphNode per position, with its path, its bottom-up
// signature (§3–4 of the paper: box signatures seed the leaves, the
// combinators compose them; the same signatures the routing tables of route.go
// accept by) and its parent — and pre-interns every declared shape.  One shape-flow pass over that tree (flow.go) propagates the
// network's inferred (or declared, WithInputType) input variants through it
// and is the type analysis: it leaves on every node what reaches and leaves
// it, and reports as structured TypeErrors the defects that would otherwise
// surface only at runtime — unreachable parallel branches, record shapes no
// branch accepts, box signature mismatches, records reaching a split without
// its index tag.  The analysis is closed-world over that input type: records
// outside it still route correctly at runtime (the dispatch tables compute
// decisions for unforeseen shapes on demand), they are simply outside the
// static contract.

// TypeError codes.
const (
	// ErrCodeUnreachable marks a parallel branch no variant of the input
	// type ever routes to.
	ErrCodeUnreachable = "unreachable-branch"
	// ErrCodeNoRoute marks an input variant no parallel branch accepts —
	// the compile-time form of the runtime's ErrNoRoute.
	ErrCodeNoRoute = "no-route"
	// ErrCodeBoxReject marks a variant that reaches a box without
	// satisfying its input signature.
	ErrCodeBoxReject = "box-reject"
	// ErrCodeMissingTag marks a variant that reaches parallel replication
	// without the split's index tag.
	ErrCodeMissingTag = "missing-index-tag"
)

// TypeError is one definite finding of the compile phase.  Path locates the
// offending node from the root ("serial#3/parallel#5/branch[1]/box inc");
// Variant, when non-nil, is the record shape exhibiting the defect.  Pos is
// empty unless a surface-language front end (snet/lang) decorated the error
// with a source position.
type TypeError struct {
	Code    string  // one of the ErrCode constants
	Path    string  // node path from the compiled root
	Node    string  // the offending node's name
	Variant Variant // offending record shape, if any
	Msg     string
	Pos     string // source position ("line:col"), if known

	subject Node
}

func (e *TypeError) Error() string {
	var b strings.Builder
	b.WriteString("snet: ")
	if e.Pos != "" {
		b.WriteString(e.Pos)
		b.WriteString(": ")
	}
	fmt.Fprintf(&b, "type error [%s] at %s: %s", e.Code, e.Path, e.Msg)
	return b.String()
}

// Subject returns the node the error is about, for front ends that map
// nodes back to source positions.
func (e *TypeError) Subject() Node { return e.subject }

// CompileError aggregates every TypeError of one Compile call.
type CompileError struct {
	Errors []*TypeError
}

func (e *CompileError) Error() string {
	if len(e.Errors) == 1 {
		return e.Errors[0].Error()
	}
	return fmt.Sprintf("%s (and %d more type errors)", e.Errors[0].Error(), len(e.Errors)-1)
}

// Unwrap exposes the individual TypeErrors to errors.Is/As.
func (e *CompileError) Unwrap() []error {
	out := make([]error, len(e.Errors))
	for i, te := range e.Errors {
		out[i] = te
	}
	return out
}

// Topology is the serializable typed graph of a compiled network — the
// inspectable artifact behind snetd's /api/networks and snetrun -check.
type Topology struct {
	Kind     string      `json:"kind"` // box, filter, sync, observe, serial, parallel, star, split
	Name     string      `json:"name"`
	Path     string      `json:"path"`
	Det      bool        `json:"det,omitempty"`
	In       []string    `json:"in,omitempty"`  // accepted input variants
	Out      []string    `json:"out,omitempty"` // produced output variants
	Sig      string      `json:"sig,omitempty"` // box signature / filter spec
	Tag      string      `json:"tag,omitempty"` // split index tag
	Exit     string      `json:"exit,omitempty"`
	Patterns []string    `json:"patterns,omitempty"` // synchrocell patterns
	Children []*Topology `json:"children,omitempty"`
	// FusionGroups, on the root topology only, lists the plan's fused
	// segments: which stages share one goroutine (fuse.go).  Grouping does
	// not change the tree, which lists every stage.
	FusionGroups []FusionGroup `json:"fusion_groups,omitempty"`
}

// compileCfg collects CompileOptions.
type compileCfg struct{ input RecType }

// CompileOption configures Compile.
type CompileOption func(*compileCfg)

// WithFusion is ignored: a plan groups its stages one way (fuse.go), runs of
// stages sharing a goroutine.  It stays declared for its last callers, and
// ROADMAP item 5(2) deletes it.
func WithFusion(bool) CompileOption {
	return func(*compileCfg) {}
}

// WithInputType declares the network's input type, overriding the inferred
// one as the seed of the shape-flow diagnostics: the compile contract
// narrows to exactly the declared variants, which typically sharpens
// unreachable-branch and no-route findings.
func WithInputType(t RecType) CompileOption {
	return func(c *compileCfg) { c.input = t }
}

// Plan is a compiled network: the checked blueprint plus everything the
// runtime precomputed from it.  A Plan is immutable and safe for concurrent
// use; every Start, RunAll and RunUntil is one run, and all runs share the
// plan's routing tables.  There is one tree: graph describes the nodes runs
// execute, and the flow pass, the analyses and Topology read the same.
type Plan struct {
	graph    *GraphNode // the blueprint, as walked by Compile; graph.Node is its root
	spines   cuts       // every position's cut into parts (fuse.go)
	once     runner     // what RunUntil runs: the root's one-shot cut, or the root
	groups   []FusionGroup
	warnings []Diagnostic
	typeErrs []*TypeError
	keys     statTable // every stat key its runs count under, run-wide ones first (Stats)
}

// Compile type-checks the network and precomputes its execution artifacts.
// On type errors it returns a non-nil *CompileError whose Errors list every
// finding; the returned Plan still runs, defects intact — callers that care
// about static guarantees must check the error.
func Compile(root Node, opts ...CompileOption) (*Plan, error) {
	if root == nil {
		panic("core: Compile: nil root")
	}
	var cfg compileCfg
	for _, o := range opts {
		o(&cfg)
	}
	c := &compiler{errKeys: map[string]bool{}, par: map[*parallelNode]*parReach{}}
	for _, k := range runKeys.keys {
		c.keys.add(k)
	}
	p := &Plan{graph: c.walk(root, nil, "")}
	cut := cutSpines(root)
	p.spines, p.groups = cut.spines, cut.groups
	c.stat(cut)
	p.once = (&spineCutter{spines: p.spines}).oneShot(root)
	seed := cfg.input
	if seed == nil {
		seed = p.graph.In
	}
	c.flowRoot(p.graph, seed)
	p.warnings, p.typeErrs, p.keys = c.warns, c.errs, c.keys
	if len(c.errs) > 0 {
		return p, &CompileError{Errors: c.errs}
	}
	return p, nil
}

// MustCompile is Compile panicking on type errors.
func MustCompile(root Node, opts ...CompileOption) *Plan { return must(Compile(root, opts...)) }

// FusionGroups lists the plan's fused segments in discovery order — empty
// when nothing fused.
func (p *Plan) FusionGroups() []FusionGroup { return p.groups }

// In returns the network's inferred input type.
func (p *Plan) In() RecType { return p.graph.In }

// Out returns the network's inferred output type.
func (p *Plan) Out() RecType { return p.graph.Out }

// Diagnostic is one non-fatal finding of the compile phase.
type Diagnostic struct {
	Node    string // the node's path
	Warning bool   // false = error
	Msg     string
}

func (d Diagnostic) String() string {
	kind := "error"
	if d.Warning {
		kind = "warning"
	}
	return fmt.Sprintf("%s: %s: %s", kind, d.Node, d.Msg)
}

// Warnings returns the non-fatal findings: what the flow pass found where its
// variant sets had become approximate (downstream of a synchrocell, or after
// truncation) and would have reported as a TypeError had they been exact.
func (p *Plan) Warnings() []Diagnostic { return p.warnings }

// TypeErrors returns the definite findings (the same list a failing Compile
// wraps in its CompileError) — empty for a cleanly compiled plan.
func (p *Plan) TypeErrors() []*TypeError { return p.typeErrs }

// Topology renders the serializable typed graph; the caller owns the result.
func (p *Plan) Topology() *Topology {
	t := renderTopology(p.graph)
	t.FusionGroups = p.groups
	return t
}

func (p *Plan) String() string {
	return fmt.Sprintf("plan %s : %v -> %v", p.graph.Node, p.In(), p.Out())
}

// maxCompileErrors caps the error list of one Compile.
const maxCompileErrors = 64

// compiler is the state of one Compile: collected findings plus the
// parallel-branch reachability the flow accumulates per node and
// finishParallel settles, in the order the flow first met each node.
type compiler struct {
	errs     []*TypeError
	warns    []Diagnostic
	errKeys  map[string]bool
	par      map[*parallelNode]*parReach
	parOrder []*parReach
	keys     statTable
}

// stat lists in the plan's table the keys n counts under, if any.
func (c *compiler) stat(n any) {
	if n, ok := n.(interface{ keyList() statKeys }); ok {
		for _, k := range n.keyList() {
			c.keys.add(k)
		}
	}
}

// typeError records a definite finding (deduplicated); when the flow has
// lost exactness (downstream of a synchrocell or a truncated variant set)
// the finding is downgraded to a warning.
func (c *compiler) typeError(exact bool, code, path string, n Node, variant Variant, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !exact {
		c.warnf(path, "%s (imprecise analysis; would be a %s error)", msg, code)
		return
	}
	key := code + "\x00" + path + "\x00" + variant.String()
	if c.errKeys[key] || len(c.errs) >= maxCompileErrors {
		return
	}
	c.errKeys[key] = true
	name := ""
	if n != nil {
		name = n.name()
	}
	c.errs = append(c.errs, &TypeError{
		Code: code, Path: path, Node: name, Variant: variant, Msg: msg, subject: n,
	})
}

func (c *compiler) warnf(path, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := "warn\x00" + path + "\x00" + msg
	if c.errKeys[key] {
		return
	}
	c.errKeys[key] = true
	c.warns = append(c.warns, Diagnostic{Node: path, Warning: true, Msg: msg})
}

// renderType renders a RecType as per-variant strings for the topology.
func renderType(t RecType) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = v.String()
	}
	return out
}

// walk is the one structural traversal of the blueprint and the one place a
// path is built: it pre-interns every node's labels and shapes, and builds the GraphNode tree the flow pass annotates, Plan.Graph
// returns and Topology is rendered from.  prefix is the parent path including
// its trailing separator; the node's path is prefix + name().  The shapes are
// those of the node's signature, which lists the label sets its author wrote
// down: so the plan's whole label universe is id-resolved and its canonical
// shapes exist before the first record flows — records of these shapes then
// take only the lock-free intern/shape read paths at runtime; out-of-plan
// dynamic shapes still intern lazily on first sight.
func (c *compiler) walk(n Node, parent *GraphNode, prefix string) *GraphNode {
	path := prefix + n.name()
	in, out := n.sig()
	g := &GraphNode{Name: n.name(), Path: path, Node: n, Parent: parent, In: in, Out: out}
	c.stat(n)
	for _, v := range slices.Concat(in, out) {
		shapeForVariant(v) // interns the labels on its way
	}
	switch n := n.(type) {
	case *boxNode:
		g.Kind = "box"
		g.BoxSig = n.boxSig
		g.Workers = n.workers
	case *filterNode:
		g.Kind = "filter"
		g.Filter = n.spec
	case *identityNode:
		g.Kind = "observe"
	case *syncNode:
		g.Kind = "sync"
		g.Patterns = append([]Pattern(nil), n.patterns...)
	case *serialNode:
		g.Kind = "serial"
		g.Children = []*GraphNode{c.walk(n.a, g, path+"/"), c.walk(n.b, g, path+"/")}
	case *parallelNode:
		g.Kind = "parallel"
		g.Det = n.det
		for i, b := range n.branches {
			g.Children = append(g.Children, c.walk(b, g, fmt.Sprintf("%s/branch[%d]/", path, i)))
		}
	case *starNode:
		g.Kind = "star"
		g.Det = n.det
		exit := n.exit
		g.Exit = &exit
		g.Children = []*GraphNode{c.walk(n.operand, g, path+"/operand/")}
	case *splitNode:
		g.Kind = "split"
		g.Det = n.det
		g.Tag = n.tag
		g.Children = []*GraphNode{c.walk(n.operand, g, path+"/operand/")}
	default:
		g.Kind = "node"
	}
	return g
}
