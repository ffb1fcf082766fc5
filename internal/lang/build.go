package lang

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// Registry binds box names to implementations — the role the SaC compiler
// plays in the paper's two-layer model.  A name may be bound to a plain
// BoxFunc (used together with the declared signature) or to a pre-built
// node (which then ignores the declaration's signature at runtime but is
// still checked against references).
type Registry struct {
	funcs map[string]core.BoxFunc
	nodes map[string]core.Node
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{funcs: map[string]core.BoxFunc{}, nodes: map[string]core.Node{}}
}

// RegisterFunc binds a box name to a function; the signature comes from the
// program's box declaration.
func (r *Registry) RegisterFunc(name string, fn core.BoxFunc) *Registry {
	r.funcs[name] = fn
	return r
}

// RegisterNode binds a name to a pre-built node (a box or a whole subnet).
func (r *Registry) RegisterNode(name string, n core.Node) *Registry {
	r.nodes[name] = n
	return r
}

// scope is the name environment during building.
type scope struct {
	parent *scope
	names  map[string]core.Node
}

func (s *scope) lookup(name string) (core.Node, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if n, ok := cur.names[name]; ok {
			return n, true
		}
	}
	return nil, false
}

// Built is the result of BuildNet: the instantiated network plus the source
// position of every node the builder constructed, so compile diagnostics
// (core.TypeError.Subject) can be mapped back to the .snet source.
type Built struct {
	Node      core.Node
	Positions map[core.Node]Pos
}

// Build instantiates the named net of the program into a runnable network.
// Box declarations take their implementations from the registry.  Nets may
// reference previously declared boxes and nets; a net's body declarations
// are local to it.
func Build(prog *Program, netName string, reg *Registry) (core.Node, error) {
	b, err := BuildNet(prog, netName, reg)
	if err != nil {
		return nil, err
	}
	return b.Node, nil
}

// BuildNet is Build keeping the node → source-position index.
func BuildNet(prog *Program, netName string, reg *Registry) (*Built, error) {
	b := &Built{Positions: map[core.Node]Pos{}}
	root := &scope{names: map[string]core.Node{}}
	if err := populate(prog, root, reg, b.Positions); err != nil {
		return nil, err
	}
	n, ok := root.lookup(netName)
	if !ok {
		return nil, fmt.Errorf("snet: no net or box named %q", netName)
	}
	b.Node = n
	return b, nil
}

// BuildText parses and builds in one step.
func BuildText(src, netName string, reg *Registry) (core.Node, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Build(prog, netName, reg)
}

// CompileNet builds the named net and compiles it (core.Compile), mapping
// every TypeError back to its .snet source position.  The returned plan is
// non-nil whenever the build succeeded, even if compilation found type
// errors (mirroring core.Compile's contract).
func CompileNet(prog *Program, netName string, reg *Registry, opts ...core.CompileOption) (*core.Plan, error) {
	_, plan, err := compileNet(prog, netName, reg, opts)
	return plan, err
}

// compileNet is the build-compile-decorate step under CompileNet and
// AnalyzeNetWithCaps; the *Built carries the position index the analysis
// decorates its own findings from.
func compileNet(prog *Program, netName string, reg *Registry, opts []core.CompileOption) (*Built, *core.Plan, error) {
	b, err := BuildNet(prog, netName, reg)
	if err != nil {
		return nil, nil, err
	}
	plan, cerr := core.Compile(b.Node, opts...)
	var ce *core.CompileError
	if errors.As(cerr, &ce) {
		for _, te := range ce.Errors {
			if pos, ok := b.Positions[te.Subject()]; ok {
				te.Pos = pos.String()
			}
		}
	}
	return b, plan, cerr
}

// populate declares the program's boxes and nets into the scope, recording
// every constructed node's source position in pos.
func populate(prog *Program, sc *scope, reg *Registry, pos map[core.Node]Pos) error {
	for _, bd := range prog.Boxes {
		if _, dup := sc.names[bd.Name]; dup {
			return &Error{Pos: bd.Pos, Msg: fmt.Sprintf("duplicate declaration %q", bd.Name)}
		}
		if n, ok := reg.nodes[bd.Name]; ok {
			sc.names[bd.Name] = n
			pos[n] = bd.Pos
			continue
		}
		fn, ok := reg.funcs[bd.Name]
		if !ok {
			return &Error{Pos: bd.Pos,
				Msg: fmt.Sprintf("box %q has no implementation in the registry", bd.Name)}
		}
		n := core.NewBox(bd.Name, bd.Sig, fn)
		sc.names[bd.Name] = n
		pos[n] = bd.Pos
	}
	for _, nd := range prog.Nets {
		if _, dup := sc.names[nd.Name]; dup {
			return &Error{Pos: nd.Pos, Msg: fmt.Sprintf("duplicate declaration %q", nd.Name)}
		}
		netScope := sc
		if nd.Body != nil {
			netScope = &scope{parent: sc, names: map[string]core.Node{}}
			if err := populate(nd.Body, netScope, reg, pos); err != nil {
				return err
			}
		}
		node, err := buildExpr(nd.Expr, netScope, nd.Name, pos)
		if err != nil {
			return err
		}
		sc.names[nd.Name] = node
		if _, ok := pos[node]; !ok {
			pos[node] = nd.Pos
		}
	}
	return nil
}

// buildExpr lowers an expression to a core network.  netName scopes the
// stats labels of anonymous combinators so experiment counters are
// addressable (e.g. "star.fig1.solve_loop..."); pos records each
// constructed node's source position.
func buildExpr(e Expr, sc *scope, netName string, pos map[core.Node]Pos) (core.Node, error) {
	record := func(n core.Node) core.Node {
		if _, ok := pos[n]; !ok {
			pos[n] = e.pos()
		}
		return n
	}
	switch e := e.(type) {
	case *IdentExpr:
		n, ok := sc.lookup(e.Name)
		if !ok {
			return nil, &Error{Pos: e.At, Msg: fmt.Sprintf("undefined name %q", e.Name)}
		}
		return n, nil
	case *SerialExpr:
		a, err := buildExpr(e.A, sc, netName, pos)
		if err != nil {
			return nil, err
		}
		b, err := buildExpr(e.B, sc, netName, pos)
		if err != nil {
			return nil, err
		}
		return record(core.Serial(a, b)), nil
	case *ParExpr:
		a, err := buildExpr(e.A, sc, netName, pos)
		if err != nil {
			return nil, err
		}
		b, err := buildExpr(e.B, sc, netName, pos)
		if err != nil {
			return nil, err
		}
		if e.Det {
			return record(core.ParallelDet(a, b)), nil
		}
		return record(core.Parallel(a, b)), nil
	case *StarExpr:
		a, err := buildExpr(e.A, sc, netName, pos)
		if err != nil {
			return nil, err
		}
		name := netName + ".star"
		if e.Det {
			return record(core.NamedStarDet(name, a, e.Exit)), nil
		}
		return record(core.NamedStar(name, a, e.Exit)), nil
	case *SplitExpr:
		a, err := buildExpr(e.A, sc, netName, pos)
		if err != nil {
			return nil, err
		}
		name := netName + ".split"
		if e.Det {
			return record(core.NamedSplitDet(name, a, e.Tag)), nil
		}
		return record(core.NamedSplit(name, a, e.Tag)), nil
	case *FilterExpr:
		return record(core.NewFilter(e.Spec)), nil
	case *SyncExpr:
		return record(core.Sync(e.Patterns...)), nil
	}
	return nil, fmt.Errorf("snet: unknown expression %T", e)
}
