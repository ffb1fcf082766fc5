package sacvm

import (
	"repro/internal/array"
	"repro/internal/sched"
)

// Elementwise operator evaluation with scalar broadcast, mirroring SaC's
// overloaded arithmetic on arrays.

// number is the element types arithmetic and ordering are defined on.
type number interface{ int | float64 }

// rescue, deferred, turns a panic raised under the array engine into the
// error it stands for: an *Error thrown by an elementwise function or a
// with-loop body passes through with its own position, an *array.ShapeError
// is reported at the construct that ran the engine, under the name of the
// structural builtin if it was one.  Anything else is a bug and is raised
// again.
func rescue(err *error, at Pos, builtin string) {
	switch r := recover().(type) {
	case nil:
	case *Error:
		*err = r
	case *array.ShapeError:
		if builtin != "" {
			*err = errf(at, "%s: %s", builtin, r.Error())
		} else {
			*err = errf(at, "%s", r.Error())
		}
	default:
		panic(r)
	}
}

func evalUnary(p *sched.Pool, op byte, x Value, at Pos) (Value, error) {
	switch op {
	case '-':
		switch x.Kind {
		case KindInt:
			return negate[int](p, x), nil
		case KindDouble:
			return negate[float64](p, x), nil
		}
		return Value{}, errf(at, "unary - needs numeric operand, got %s", x.TypeString())
	case '!':
		if x.Kind != KindBool {
			return Value{}, errf(at, "! needs bool operand, got %s", x.TypeString())
		}
		return BoolValue(array.Map(p, x.B, func(v bool) bool { return !v })), nil
	}
	return Value{}, errf(at, "unknown unary operator %q", string(op))
}

func negate[T number](p *sched.Pool, x Value) Value {
	return val(array.Map(p, arr[T](x), func(v T) T { return -v }))
}

// broadcast pairs two values of element type T under SaC's scalar-broadcast
// rule and applies f elementwise.
func broadcast[T, R elem](p *sched.Pool, x, y Value, f func(T, T) R, at Pos) (Value, error) {
	a, b := arr[T](x), arr[T](y)
	switch {
	case sameShape(a.Shape(), b.Shape()):
		return val(array.Zip(p, a, b, f)), nil
	case a.Dim() == 0:
		av := a.ScalarValue()
		return val(array.Map(p, b, func(x T) R { return f(av, x) })), nil
	case b.Dim() == 0:
		bv := b.ScalarValue()
		return val(array.Map(p, a, func(x T) R { return f(x, bv) })), nil
	}
	return Value{}, errf(at, "shape mismatch %v vs %v", a.Shape(), b.Shape())
}

func evalBinop(p *sched.Pool, op string, x, y Value, at Pos) (Value, error) {
	// int op double promotes the int scalar (sufficient for the paper's
	// programs; general promotion is not part of Core SaC).
	if x.Kind == KindInt && y.Kind == KindDouble && x.IsScalar() {
		x = DoubleScalar(float64(x.I.ScalarValue()))
	}
	if y.Kind == KindInt && x.Kind == KindDouble && y.IsScalar() {
		y = DoubleScalar(float64(y.I.ScalarValue()))
	}
	if x.Kind != y.Kind {
		return Value{}, errf(at, "operator %s on mixed types %s and %s", op, x.TypeString(), y.TypeString())
	}
	switch x.Kind {
	case KindInt:
		if op == "/" || op == "%" {
			return intDivide(p, op, x, y, at)
		}
		return numBinop(p, intOps, op, x, y, at)
	case KindDouble:
		if op == "/" {
			return broadcast(p, x, y, func(a, b float64) float64 { return a / b }, at)
		}
		return numBinop(p, doubleOps, op, x, y, at)
	}
	if f := boolOps[op]; f != nil {
		return broadcast(p, x, y, f, at)
	}
	return Value{}, errf(at, "operator %s not defined on bool", op)
}

// numBinop is the operators int and double share.
func numBinop[T number](p *sched.Pool, ops numOps[T], op string, x, y Value, at Pos) (Value, error) {
	if f := ops.arith[op]; f != nil {
		return broadcast(p, x, y, f, at)
	}
	if f := ops.compare[op]; f != nil {
		return broadcast(p, x, y, f, at)
	}
	return Value{}, errf(at, "operator %s not defined on %s", op, x.Kind)
}

// intDivide is int / and %.  The zero check sits in the elementwise function
// and throws; the deferred rescue returns what it threw.
func intDivide(p *sched.Pool, op string, x, y Value, at Pos) (out Value, err error) {
	defer rescue(&err, at, "")
	return broadcast(p, x, y, func(a, b int) int {
		if b == 0 {
			panic(errf(at, "division by zero"))
		}
		if op == "/" {
			return a / b
		}
		return a % b
	}, at)
}

// numOps is the operators written once for int and double; arith holds the
// fold operators of with-loops too.  The tables are built once per element
// type (a closure made inside a generic function is an allocation).
type numOps[T number] struct {
	arith   map[string]func(T, T) T
	compare map[string]func(T, T) bool
}

var intOps, doubleOps = newNumOps[int](), newNumOps[float64]()

func newNumOps[T number]() numOps[T] {
	return numOps[T]{
		arith: map[string]func(T, T) T{
			"+": func(a, b T) T { return a + b },
			"-": func(a, b T) T { return a - b },
			"*": func(a, b T) T { return a * b },
			"min": func(a, b T) T {
				if a < b {
					return a
				}
				return b
			},
			"max": func(a, b T) T {
				if a > b {
					return a
				}
				return b
			},
		},
		compare: map[string]func(T, T) bool{
			"==": func(a, b T) bool { return a == b },
			"!=": func(a, b T) bool { return a != b },
			"<":  func(a, b T) bool { return a < b },
			"<=": func(a, b T) bool { return a <= b },
			">":  func(a, b T) bool { return a > b },
			">=": func(a, b T) bool { return a >= b },
		},
	}
}

// boolOps is the operators of bool; && and || are its fold operators.
var boolOps = map[string]func(bool, bool) bool{
	"&&": func(a, b bool) bool { return a && b },
	"||": func(a, b bool) bool { return a || b },
	"==": func(a, b bool) bool { return a == b },
	"!=": func(a, b bool) bool { return a != b },
}

// structural runs the builtins that rearrange an array whatever it holds —
// take, drop, tile, rotate, reverse, transpose, with their integer arguments
// in ns — and, under no name, the selection x[ns] that the index expression
// and sel share.  A shape panic of the array layer becomes an error at the
// call.
func structural(p *sched.Pool, name string, x Value, at Pos, ns ...int) (out Value, err error) {
	if name == "" && len(ns) > x.Dim() {
		return Value{}, errf(at, "index %v longer than rank %d", ns, x.Dim())
	}
	defer rescue(&err, at, name)
	switch x.Kind {
	case KindInt:
		return val(rearrange(p, name, x.I, ns)), nil
	case KindBool:
		return val(rearrange(p, name, x.B, ns)), nil
	default:
		return val(rearrange(p, name, x.D, ns)), nil
	}
}

func rearrange[T elem](p *sched.Pool, name string, a *array.Array[T], ns []int) *array.Array[T] {
	switch name {
	case "": // prefix selection yields subarrays, full-rank selection scalars (§2)
		return a.Sel(ns...)
	case "take":
		return array.Take(a, ns[0])
	case "drop":
		return array.Drop(a, ns[0])
	case "tile":
		return array.Tile(a, ns[0])
	case "rotate":
		return array.Rotate(a, ns[0], ns[1])
	case "reverse":
		return array.Reverse(a, ns[0])
	default:
		return array.Transpose(p, a)
	}
}

// indexUpdate implements the functional update a[iv] = v for full-rank
// scalar writes.
func indexUpdate(cur Value, iv []int, v Value, at Pos) (out Value, err error) {
	defer rescue(&err, at, "")
	if len(iv) != cur.Dim() {
		return Value{}, errf(at, "indexed assignment needs a full index (rank %d, index %v)", cur.Dim(), iv)
	}
	if cur.Kind != v.Kind || !v.IsScalar() {
		return Value{}, errf(at, "indexed assignment needs a %s scalar, got %s", cur.Kind, v.TypeString())
	}
	switch cur.Kind {
	case KindInt:
		return IntValue(cur.I.WithAt(v.I.ScalarValue(), iv...)), nil
	case KindBool:
		return BoolValue(cur.B.WithAt(v.B.ScalarValue(), iv...)), nil
	default:
		return DoubleValue(cur.D.WithAt(v.D.ScalarValue(), iv...)), nil
	}
}
