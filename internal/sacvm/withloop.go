package sacvm

import (
	"repro/internal/array"
)

// genBounds is one generator with evaluated bounds.
type genBounds struct {
	lo, hi []int
	spec   *GenSpec
}

// evalWith evaluates a with-loop.  Generator bodies run data-parallel on
// the interpreter's pool; each body evaluation gets a fresh child frame
// binding the index variable, with the enclosing frame shared read-only —
// sound because Core SaC expressions cannot assign.
func (ctx *evalCtx) evalWith(wl *WithLoop, e *env) (Value, error) {
	gens := make([]genBounds, len(wl.Gens))
	for i := range wl.Gens {
		g := &wl.Gens[i]
		lo, err := ctx.evalBoundVector(g.Lower, e)
		if err != nil {
			return Value{}, err
		}
		hi, err := ctx.evalBoundVector(g.Upper, e)
		if err != nil {
			return Value{}, err
		}
		if len(lo) != len(hi) {
			return Value{}, errf(g.At, "generator bounds %v and %v differ in length", lo, hi)
		}
		gens[i] = genBounds{lo: lo, hi: hi, spec: g}
	}
	// typed is the argument that fixes the element type: the default of a
	// genarray, the source of a modarray, the neutral of a fold.
	var (
		shape []int
		typed Value
		err   error
	)
	switch wl.Kind {
	case GenGenarray:
		var shapeV Value
		if shapeV, err = ctx.eval(wl.A1, e); err != nil {
			return Value{}, err
		}
		if shape, err = shapeV.AsIntVector(wl.A1.epos()); err != nil {
			return Value{}, err
		}
		if typed, err = ctx.eval(wl.A2, e); err != nil {
			return Value{}, err
		}
		if !typed.IsScalar() {
			return Value{}, errf(wl.A2.epos(), "genarray default must be scalar (non-scalar defaults are outside this subset)")
		}
	case GenModarray, GenFold:
		if typed, err = ctx.eval(wl.A1, e); err != nil {
			return Value{}, err
		}
		if wl.Kind == GenFold && !typed.IsScalar() {
			return Value{}, errf(wl.A1.epos(), "fold neutral must be scalar")
		}
	default:
		return Value{}, errf(wl.At, "unknown with-loop kind")
	}
	switch typed.Kind {
	case KindInt:
		return withLoop(ctx, wl, gens, e, shape, typed, intOps.arith[wl.Op])
	case KindBool:
		return withLoop(ctx, wl, gens, e, shape, typed, boolOps[wl.Op])
	default:
		return withLoop(ctx, wl, gens, e, shape, typed, doubleOps.arith[wl.Op])
	}
}

// withLoop runs a with-loop of element type T on the array engine.  Body
// panics (eval errors) and shape errors come back as ordinary errors, the
// latter at the with-loop.
func withLoop[T elem](ctx *evalCtx, wl *WithLoop, bounds []genBounds, e *env, shape []int, typed Value, op func(T, T) T) (out Value, err error) {
	if wl.Kind == GenFold && op == nil {
		return Value{}, errf(wl.At, "fold operator %q not defined on %s", wl.Op, typed.Kind)
	}
	gens := make([]array.Gen[T], len(bounds))
	kind := typed.Kind
	for i, g := range bounds {
		spec := g.spec
		gens[i] = array.Gen[T]{Lower: g.lo, Upper: g.hi, ExclLower: !spec.LowerIncl, IncUpper: spec.UpperIncl,
			Body: func(iv []int) T { return arr[T](ctx.bodyScalar(spec, e, iv, kind)).ScalarValue() }}
	}
	defer rescue(&err, wl.At, "")
	pool, a := ctx.itp.pool, arr[T](typed)
	switch wl.Kind {
	case GenGenarray:
		return val(array.Genarray(pool, shape, a.ScalarValue(), gens...)), nil
	case GenModarray:
		return val(array.Modarray(pool, a, gens...)), nil
	default:
		return val(array.Scalar(array.Fold(pool, a.ScalarValue(), op, gens...))), nil
	}
}

// evalBoundVector evaluates a generator bound to an index vector; scalars
// become 1-element vectors.
func (ctx *evalCtx) evalBoundVector(ex Expr, e *env) ([]int, error) {
	v, err := ctx.eval(ex, e)
	if err != nil {
		return nil, err
	}
	return v.AsIntVector(ex.epos())
}

// bodyScalar evaluates a generator body under the loop variable binding and
// asserts the expected scalar kind, panicking with *Error on failure (the
// array engine re-raises at the with-loop call site).
func (ctx *evalCtx) bodyScalar(g *GenSpec, e *env, iv []int, want ValueKind) Value {
	frame := &env{vars: map[string]Value{
		g.Var: IntVector(append([]int(nil), iv...)...),
	}, parent: e}
	v, err := ctx.eval(g.Body, frame)
	if err != nil {
		panic(err)
	}
	if v.Kind != want || !v.IsScalar() {
		panic(errf(g.Body.epos(), "with-loop body must yield a %s scalar, got %s", want, v.TypeString()))
	}
	return v
}
