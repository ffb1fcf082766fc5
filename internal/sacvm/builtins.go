package sacvm

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/sched"
)

// builtinArity is the argument count of every builtin that has one; print
// and snet_out take any number.
var builtinArity = map[string]int{
	"dim": 1, "shape": 1, "sel": 2, "toi": 1, "tod": 1, "tob": 1, "min": 2, "max": 2,
	"take": 2, "drop": 2, "tile": 2, "rotate": 3, "reverse": 2, "transpose": 1,
}

// Builtins: the SaC primitives of §2 (dim, shape, sel) plus conversions
// (toi, tod, tob), scalar min/max, print, and the snet_out interface
// function of §4.  User definitions shadow builtins.
func (ctx *evalCtx) evalBuiltin(call *CallExpr, args []Value) ([]Value, error) {
	if n, ok := builtinArity[call.Name]; ok && len(args) != n {
		return nil, errf(call.At, "%s expects %d arguments, got %d", call.Name, n, len(args))
	}
	pool := ctx.itp.pool
	one := func(v Value, err error) ([]Value, error) {
		if err != nil {
			return nil, err
		}
		return []Value{v}, nil
	}
	// rearranged runs a structural builtin on x with its scalar int arguments.
	rearranged := func(x Value, nums []Value) ([]Value, error) {
		ns := make([]int, len(nums))
		for i, a := range nums {
			n, err := a.AsInt(call.At)
			if err != nil {
				return nil, err
			}
			ns[i] = n
		}
		return one(structural(pool, call.Name, x, call.At, ns...))
	}
	switch call.Name {
	case "dim":
		return one(IntScalar(args[0].Dim()), nil)
	case "shape":
		return one(IntVector(args[0].Shape()...), nil)
	case "sel":
		iv, err := args[0].AsIntVector(call.At)
		if err != nil {
			return nil, err
		}
		return one(structural(pool, "", args[1], call.At, iv...))
	case "toi", "tod", "tob":
		f, ok := conversions[conversion{call.Name, args[0].Kind}]
		if !ok {
			return nil, errf(call.At, "%s: cannot convert %s", call.Name, args[0].Kind)
		}
		return one(f(pool, args[0]), nil)
	case "min", "max":
		return one(evalBinop(pool, call.Name, args[0], args[1], call.At))
	case "take", "drop", "tile", "transpose": // f(array[, n])
		return rearranged(args[0], args[1:])
	case "rotate", "reverse": // rotate(axis, n, array), reverse(axis, array)
		last := len(args) - 1
		return rearranged(args[last], args[:last])
	case "print":
		for _, a := range args {
			if ctx.itp.out != nil {
				fmt.Fprintln(ctx.itp.out, a.String())
			}
		}
		return nil, nil
	case "snet_out":
		if ctx.emit == nil {
			return nil, errf(call.At, "snet_out called outside a box context")
		}
		if len(args) < 1 {
			return nil, errf(call.At, "snet_out needs a variant number")
		}
		variant, err := args[0].AsInt(call.At)
		if err != nil {
			return nil, err
		}
		if err := ctx.emit(variant, args[1:]); err != nil {
			return nil, errf(call.At, "snet_out: %s", err)
		}
		return nil, nil
	}
	return nil, errf(call.At, "undefined function %q", call.Name)
}

type conversion struct {
	name string
	from ValueKind
}

// conversions holds toi, tod and tob by name and source kind; a pair not
// listed is refused.
var conversions = map[conversion]func(*sched.Pool, Value) Value{
	{"toi", KindInt}: unconverted,
	{"toi", KindBool}: func(p *sched.Pool, v Value) Value {
		return IntValue(array.Map(p, v.B, func(b bool) int {
			if b {
				return 1
			}
			return 0
		}))
	},
	{"toi", KindDouble}: func(p *sched.Pool, v Value) Value {
		return IntValue(array.Map(p, v.D, func(d float64) int { return int(d) }))
	},
	{"tod", KindDouble}: unconverted,
	{"tod", KindInt}: func(p *sched.Pool, v Value) Value {
		return DoubleValue(array.Map(p, v.I, func(i int) float64 { return float64(i) }))
	},
	{"tob", KindBool}: unconverted,
	{"tob", KindInt}: func(p *sched.Pool, v Value) Value {
		return BoolValue(array.Map(p, v.I, func(i int) bool { return i != 0 }))
	},
}

func unconverted(_ *sched.Pool, v Value) Value { return v }
