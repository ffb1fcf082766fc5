package sacvm

import (
	"fmt"
	"io"

	"repro/internal/array"
	"repro/internal/sched"
)

// EmitFn receives snet_out calls made by interpreted code — the interface
// function through which a SaC box function produces its output records
// (§4).  Outside box contexts snet_out is an error.
type EmitFn func(variant int, vals []Value) error

// Interp evaluates a parsed SaC program.  It is safe for concurrent Call
// invocations: all mutable state is per-call.
type Interp struct {
	prog *Program
	pool *sched.Pool
	out  io.Writer
}

// New returns an interpreter for prog whose with-loops execute on pool.
func New(prog *Program, pool *sched.Pool) *Interp {
	if pool == nil {
		pool = sched.New(1)
	}
	return &Interp{prog: prog, pool: pool}
}

// SetOutput directs the print builtin (default: discard).
func (itp *Interp) SetOutput(w io.Writer) { itp.out = w }

// HasFun reports whether the program defines the named function.
func (itp *Interp) HasFun(name string) bool {
	_, ok := itp.prog.Funs[name]
	return ok
}

// Call invokes a defined function with the given arguments.  emit handles
// snet_out calls (nil means snet_out is unavailable).
func (itp *Interp) Call(name string, args []Value, emit EmitFn) ([]Value, error) {
	fd, ok := itp.prog.Funs[name]
	if !ok {
		return nil, fmt.Errorf("sac: undefined function %q", name)
	}
	ctx := &evalCtx{itp: itp, emit: emit}
	return ctx.callFun(fd, args, Pos{})
}

// evalCtx carries the per-call context (the snet_out sink).
type evalCtx struct {
	itp  *Interp
	emit EmitFn
}

// env is a lexical environment.  Function bodies use a single flat frame
// (C-style scoping, as the paper's Core SaC defines assignment sequences as
// nested lets over one frame); with-loop bodies push read-only child frames.
type env struct {
	vars   map[string]Value
	parent *env
}

func (e *env) lookup(name string) (Value, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		if v, ok := cur.vars[name]; ok {
			return v, true
		}
	}
	return Value{}, false
}

func (e *env) set(name string, v Value) { e.vars[name] = v }

func (ctx *evalCtx) callFun(fd *FunDecl, args []Value, at Pos) ([]Value, error) {
	if len(args) != len(fd.Params) {
		return nil, errf(at, "%s expects %d arguments, got %d", fd.Name, len(fd.Params), len(args))
	}
	frame := &env{vars: make(map[string]Value, len(fd.Params)+8)}
	for i, p := range fd.Params {
		frame.set(p.Name, args[i])
	}
	ret, err := ctx.execBlock(fd.Body, frame)
	if err != nil {
		return nil, err
	}
	if ret == nil {
		if len(fd.Returns) == 1 && fd.Returns[0].Base == "void" {
			return nil, nil
		}
		return nil, errf(fd.At, "%s: missing return", fd.Name)
	}
	return *ret, nil
}

// execBlock runs statements; a non-nil result signals a return.
func (ctx *evalCtx) execBlock(stmts []Stmt, e *env) (*[]Value, error) {
	for _, s := range stmts {
		ret, err := ctx.execStmt(s, e)
		if err != nil || ret != nil {
			return ret, err
		}
	}
	return nil, nil
}

func (ctx *evalCtx) execStmt(s Stmt, e *env) (*[]Value, error) {
	switch s := s.(type) {
	case *AssignStmt:
		vals, err := ctx.evalAll(s.Exprs, e)
		if err != nil {
			return nil, err
		}
		if len(vals) != len(s.Targets) {
			return nil, errf(s.At, "assignment of %d values to %d targets", len(vals), len(s.Targets))
		}
		for i, t := range s.Targets {
			e.set(t, vals[i])
		}
		return nil, nil
	case *IndexAssignStmt:
		cur, ok := e.lookup(s.Name)
		if !ok {
			return nil, errf(s.At, "undefined variable %q", s.Name)
		}
		iv, err := ctx.evalIndexVector(s.Index, e, s.At)
		if err != nil {
			return nil, err
		}
		v, err := ctx.eval(s.Value, e)
		if err != nil {
			return nil, err
		}
		upd, err := indexUpdate(cur, iv, v, s.At)
		if err != nil {
			return nil, err
		}
		e.set(s.Name, upd)
		return nil, nil
	case *IfStmt:
		b, err := ctx.evalCond(s.Cond, e, s.At)
		if err != nil {
			return nil, err
		}
		if b {
			return ctx.execBlock(s.Then, e)
		}
		return ctx.execBlock(s.Else, e)
	case *WhileStmt:
		return ctx.execLoop(s.Cond, s.Body, nil, e, s.At)
	case *ForStmt:
		if s.Init != nil {
			if _, err := ctx.execStmt(s.Init, e); err != nil {
				return nil, err
			}
		}
		return ctx.execLoop(s.Cond, s.Body, s.Post, e, s.At)
	case *ReturnStmt:
		vals, err := ctx.evalAll(s.Exprs, e)
		if err != nil {
			return nil, err
		}
		return &vals, nil
	case *ExprStmt:
		_, err := ctx.evalMulti(s.X, e)
		return nil, err
	}
	return nil, errf(s.pos(), "unknown statement %T", s)
}

// execLoop is while (cond) body and, with a post statement, the loop of a
// for; a non-nil result is a return from inside the body.
func (ctx *evalCtx) execLoop(cond Expr, body []Stmt, post Stmt, e *env, at Pos) (*[]Value, error) {
	for {
		b, err := ctx.evalCond(cond, e, at)
		if err != nil || !b {
			return nil, err
		}
		ret, err := ctx.execBlock(body, e)
		if err != nil || ret != nil {
			return ret, err
		}
		if post != nil {
			if _, err := ctx.execStmt(post, e); err != nil {
				return nil, err
			}
		}
	}
}

// evalCond evaluates the condition of the if, while or for statement at.
func (ctx *evalCtx) evalCond(cond Expr, e *env, at Pos) (bool, error) {
	c, err := ctx.eval(cond, e)
	if err != nil {
		return false, err
	}
	return c.AsBool(at)
}

// evalAll evaluates the right-hand sides of an assignment or the operands
// of a return; a multi-value call contributes all its values.
func (ctx *evalCtx) evalAll(exprs []Expr, e *env) ([]Value, error) {
	vals := make([]Value, 0, len(exprs))
	for _, ex := range exprs {
		vs, err := ctx.evalMulti(ex, e)
		if err != nil {
			return nil, err
		}
		vals = append(vals, vs...)
	}
	return vals, nil
}

// evalMulti evaluates an expression that may yield multiple values (a
// multi-value function call); all other expressions yield one value.
func (ctx *evalCtx) evalMulti(ex Expr, e *env) ([]Value, error) {
	if call, ok := ex.(*CallExpr); ok {
		return ctx.evalCall(call, e)
	}
	v, err := ctx.eval(ex, e)
	if err != nil {
		return nil, err
	}
	return []Value{v}, nil
}

func (ctx *evalCtx) eval(ex Expr, e *env) (Value, error) {
	switch ex := ex.(type) {
	case *IntLit:
		return IntScalar(ex.V), nil
	case *DoubleLit:
		return DoubleScalar(ex.V), nil
	case *BoolLit:
		return BoolScalar(ex.V), nil
	case *VarRef:
		v, ok := e.lookup(ex.Name)
		if !ok {
			return Value{}, errf(ex.At, "undefined variable %q", ex.Name)
		}
		return v, nil
	case *ArrayLit:
		return ctx.evalArrayLit(ex, e)
	case *UnaryExpr:
		x, err := ctx.eval(ex.X, e)
		if err != nil {
			return Value{}, err
		}
		return evalUnary(ctx.itp.pool, ex.Op, x, ex.At)
	case *BinExpr:
		return ctx.evalBinary(ex, e)
	case *IndexExpr:
		x, err := ctx.eval(ex.X, e)
		if err != nil {
			return Value{}, err
		}
		iv, err := ctx.evalIndexVector(ex.Idx, e, ex.At)
		if err != nil {
			return Value{}, err
		}
		return structural(ctx.itp.pool, "", x, ex.At, iv...)
	case *CallExpr:
		vs, err := ctx.evalCall(ex, e)
		if err != nil {
			return Value{}, err
		}
		if len(vs) != 1 {
			return Value{}, errf(ex.At, "%s yields %d values in single-value context", ex.Name, len(vs))
		}
		return vs[0], nil
	case *WithLoop:
		return ctx.evalWith(ex, e)
	}
	return Value{}, errf(ex.epos(), "unknown expression %T", ex)
}

// evalBinary handles && / || with scalar short-circuit, everything else
// elementwise with scalar broadcast.
func (ctx *evalCtx) evalBinary(ex *BinExpr, e *env) (Value, error) {
	x, err := ctx.eval(ex.X, e)
	if err != nil {
		return Value{}, err
	}
	if (ex.Op == "&&" || ex.Op == "||") && x.Kind == KindBool && x.IsScalar() {
		b := x.B.ScalarValue()
		if (ex.Op == "&&" && !b) || (ex.Op == "||" && b) {
			return BoolScalar(b), nil
		}
		return ctx.eval(ex.Y, e)
	}
	y, err := ctx.eval(ex.Y, e)
	if err != nil {
		return Value{}, err
	}
	return evalBinop(ctx.itp.pool, ex.Op, x, y, ex.At)
}

// evalIndexVector evaluates index expressions: either one vector-valued
// expression (a[iv]) or a list of scalars (a[i,j,k]).
func (ctx *evalCtx) evalIndexVector(idx []Expr, e *env, at Pos) ([]int, error) {
	if len(idx) == 1 {
		v, err := ctx.eval(idx[0], e)
		if err != nil {
			return nil, err
		}
		if v.Kind == KindInt && v.Dim() == 1 {
			return append([]int(nil), v.I.Data()...), nil
		}
		n, err := v.AsInt(at)
		if err != nil {
			return nil, err
		}
		return []int{n}, nil
	}
	out := make([]int, len(idx))
	for i, ixe := range idx {
		v, err := ctx.eval(ixe, e)
		if err != nil {
			return nil, err
		}
		n, err := v.AsInt(at)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

func (ctx *evalCtx) evalArrayLit(lit *ArrayLit, e *env) (Value, error) {
	if len(lit.Elems) == 0 {
		return IntValue(array.New([]int{0}, 0)), nil
	}
	vals := make([]Value, len(lit.Elems))
	for i, el := range lit.Elems {
		v, err := ctx.eval(el, e)
		if err != nil {
			return Value{}, err
		}
		vals[i] = v
	}
	kind := vals[0].Kind
	shape := vals[0].Shape()
	for _, v := range vals[1:] {
		if v.Kind != kind || !sameShape(v.Shape(), shape) {
			return Value{}, errf(lit.At, "array literal elements must agree in type and shape")
		}
	}
	outShape := append([]int{len(vals)}, shape...)
	switch kind {
	case KindInt:
		return stack[int](vals, outShape), nil
	case KindBool:
		return stack[bool](vals, outShape), nil
	default:
		return stack[float64](vals, outShape), nil
	}
}

// stack lays same-shaped values of element type T end to end under shape.
func stack[T elem](vals []Value, shape []int) Value {
	data := make([]T, 0, len(vals)*vals[0].Size())
	for _, v := range vals {
		data = append(data, arr[T](v).Data()...)
	}
	return val(array.FromSlice(shape, data))
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (ctx *evalCtx) evalCall(call *CallExpr, e *env) ([]Value, error) {
	args := make([]Value, len(call.Args))
	for i, a := range call.Args {
		v, err := ctx.eval(a, e)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	// User definitions shadow builtins.
	if fd, ok := ctx.itp.prog.Funs[call.Name]; ok {
		return ctx.callFun(fd, args, call.At)
	}
	return ctx.evalBuiltin(call, args)
}
