package sacvm

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/array"
	"repro/internal/sched"
)

var update = flag.Bool("update", false, "rewrite testdata/interp.golden")

// TestInterpGolden pins what the interpreter computes and what it refuses:
// for every case of goldenCorpus the rendered results, print lines and
// snet_out records, or the exact error string with its line:col — once on a
// sequential pool and once on four workers at grain 1, where every chunk
// boundary falls mid-row and with-loop bodies run on worker goroutines.  A
// case whose two renderings agree is written once; one that differs gets a
// second "@4x1" block, so the file shows any pool-dependent behaviour.
func TestInterpGolden(t *testing.T) {
	seq, par := sched.New(1), sched.NewWithGrain(4, 1)
	var b strings.Builder
	b.WriteString("# internal/sacvm: what every corpus program yields on sched.New(1); a \"@4x1\" block\n" +
		"# follows a case only where sched.NewWithGrain(4, 1) yields something else.\n")
	for _, c := range goldenCorpus() {
		one, four := c.render(seq), c.render(par)
		writeCase(&b, c.name, one)
		if four != one {
			writeCase(&b, c.name+" @4x1", four)
		}
	}
	got := b.String()
	const golden = "testdata/interp.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("interpreter drifted from %s at line %d (re-run with -update if intended)\n got: %s\nwant: %s", golden, i+1, g, w)
		}
	}
}

func writeCase(b *strings.Builder, name, out string) {
	if strings.Contains(out, "\n") {
		fmt.Fprintf(b, "%s =>\n\t%s\n", name, strings.ReplaceAll(out, "\n", "\n\t"))
		return
	}
	fmt.Fprintf(b, "%s => %s\n", name, out)
}

// goldenCase is one program of the corpus: src is parsed, fn (main if empty)
// called with args, inside a box context if box is set.
type goldenCase struct {
	name string
	src  string
	fn   string
	args []Value
	box  bool
}

func (c goldenCase) render(pool *sched.Pool) string {
	prog, err := Parse(c.src)
	if err != nil {
		return "parse error: " + err.Error()
	}
	var lines []string
	var printed bytes.Buffer
	itp := New(prog, pool)
	itp.SetOutput(&printed)
	var emit EmitFn
	if c.box {
		emit = func(variant int, vals []Value) error {
			if variant == 99 {
				return fmt.Errorf("no variant %d", variant)
			}
			lines = append(lines, fmt.Sprintf("snet_out %d: %s", variant, renderValues(vals)))
			return nil
		}
	}
	fn := c.fn
	if fn == "" {
		fn = "main"
	}
	out, err := itp.Call(fn, c.args, emit)
	if printed.Len() > 0 {
		for _, l := range strings.Split(strings.TrimSuffix(printed.String(), "\n"), "\n") {
			lines = append(lines, "print: "+l)
		}
	}
	switch {
	case err != nil:
		lines = append(lines, "error: "+err.Error())
	case len(out) == 0:
		lines = append(lines, "(no value)")
	default:
		lines = append(lines, renderValues(out))
	}
	return strings.Join(lines, "\n")
}

func renderValues(vs []Value) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.TypeString() + " " + v.String()
	}
	return strings.Join(parts, "\n")
}

// body wraps statements as a one-line main, so an error's column is the
// statement's offset plus 14.
func body(name, stmts string) goldenCase {
	return goldenCase{name: name, src: "int main() { " + stmts + " }"}
}

// expr is body for a single returned expression (column offset 22).
func expr(name, e string) goldenCase { return body(name, "return( "+e+");") }

func goldenCorpus() []goldenCase {
	var cs []goldenCase
	cs = append(cs, operatorCases()...)
	cs = append(cs, languageCases()...)
	cs = append(cs, withLoopCases()...)
	cs = append(cs, builtinCases()...)
	cs = append(cs, failureCases()...)
	cs = append(cs, parseCases()...)
	cs = append(cs, literalCases()...)
	cs = append(cs, embeddedCases()...)
	return cs
}

// operatorCases applies every binary and unary operator to scalar, array and
// broadcast operands of each kind, to int/double pairs (promotion of an int
// scalar) and to pairs that must be refused.
func operatorCases() []goldenCase {
	operands := [][2]string{
		{"7", "2"}, {"[7,8,9]", "[2,3,4]"}, {"[7,8,9]", "2"}, {"7", "[2,3,4]"}, {"[[1,2],[3,4]]", "[[4,3],[2,1]]"},
		{"7.5", "2.0"}, {"[7.5,8.5]", "[2.0,4.0]"}, {"[7.5,8.5]", "2.0"}, {"7.5", "[2.0,4.0]"},
		{"true", "false"}, {"[true,false]", "[true,true]"}, {"[true,false]", "true"}, {"false", "[true,false]"},
		{"7", "2.5"}, {"2.5", "7"}, {"2", "[1.5,2.5]"}, {"[1.5,2.5]", "2"}, {"[1,2]", "2.5"}, {"2.5", "[1,2]"},
		{"1", "true"}, {"true", "1.5"}, {"[1,2]", "[1,2,3]"}, {"[1.5]", "[1.5,2.5]"}, {"[true]", "[true,false]"},
	}
	var cs []goldenCase
	for _, op := range []string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||"} {
		for _, o := range operands {
			e := o[0] + " " + op + " " + o[1]
			cs = append(cs, expr(e, e))
		}
	}
	for _, f := range []string{"min", "max"} {
		for _, o := range operands {
			e := f + "( " + o[0] + ", " + o[1] + ")"
			cs = append(cs, expr(e, e))
		}
	}
	for _, op := range []string{"-", "!"} {
		for _, x := range []string{"7", "[7,8]", "7.5", "[7.5,8.5]", "true", "[true,false]"} {
			cs = append(cs, expr(op+x, op+x))
		}
	}
	return cs
}

func languageCases() []goldenCase {
	return []goldenCase{
		// precedence and associativity
		expr("prec mul over add", "1 + 2 * 3 - 4 / 2 % 3"),
		expr("left assoc sub", "10 - 3 - 2"),
		expr("left assoc div", "100 / 5 / 2"),
		expr("cmp over and over or", "1 < 2 && 2 < 1 || 3 >= 3"),
		expr("or binds loosest", "true || false && false"),
		expr("cmp chain is left assoc", "1 < 2 == true"),
		expr("unary binds tightest", "-2 * -3 + - -1"),
		expr("not before cmp", "!true == false"),
		expr("parens", "(1 + 2) * (3 - 4)"),
		{name: "concat is additive", src: Prelude + "int[*] main() { return( [1] ++ [2] ++ [3] + 1); }"},
		{name: "concat after add", src: Prelude + "int[*] main() { return( [1] + 1 ++ [5] * 2); }"},
		expr("postfix index chain", "[[1,2],[3,4]][1][0]"),
		expr("index of parens", "([[1,2],[3,4]])[1,0]"),
		expr("index of call", "shape( [[1,2,3],[4,5,6]])[1]"),
		expr("vector index", "[[1,2],[3,4]][[0,1]]"),
		expr("prefix selection", "[[1,2],[3,4]][1]"),
		expr("empty index vector", "[[1,2],[3,4]][take( [0], 0)]"),
		expr("bool prefix selection", "[[true,false],[false,true]][0]"),
		expr("double selection", "[[1.5,2.5],[3.5,4.5]][1,1]"),
		// literals
		expr("empty array literal", "[]"),
		expr("nested literal", "[[1,2,3],[4,5,6]]"),
		expr("rank 3 literal", "[[[1,2],[3,4]],[[5,6],[7,8]]]"),
		expr("double literal", "[0.5, 10.25]"),
		expr("bool literal", "[[true],[false]]"),
		expr("literal of expressions", "[1+1, 2*2, min( 9, 3)]"),
		expr("literal kinds disagree", "[1, true]"),
		expr("literal shapes disagree", "[[1,2],[3]]"),
		expr("literal int and double", "[1, 2.5]"),
		// short circuit
		expr("and short-circuits", "false && (1/0 == 0)"),
		expr("or short-circuits", "true || (1/0 == 0)"),
		expr("and evaluates rhs", "true && (1/0 == 0)"),
		expr("scalar and array rhs", "true && [true,false]"),
		expr("scalar false and array", "false && [true,false]"),
		expr("array and does not short-circuit", "[false,false] && [1/0 == 0, true]"),
		expr("true and non-bool rhs", "true && 1"),
		// statements
		body("multi assignment", "a, b = 1, 2; a, b = b, a; return( a*10 + b);"),
		{name: "multi-value call", src: "int, int swap( int a, int b) { return( b, a); } int main() { x, y = swap( 3, 7); return( x*10 + y); }"},
		{name: "multi-value call mixed with values", src: "int, int two() { return( 1, 2); } int main() { a, b, c = two(), 3; return( a*100 + b*10 + c); }"},
		{name: "multi-value return passes through", src: "int, int two() { return( 1, 2); } int, int main() { return( two()); }"},
		{name: "call statement", src: "int f() { print( 1); return( 0); } int main() { f(); return( 2); }"},
		body("indexed assignment", "a = [1,2,3]; b = a; a[1] = 99; return( a + b);"),
		body("indexed assignment vector index", "m = [[1,2],[3,4]]; iv = [1,0]; m[iv] = 9; return( m);"),
		body("indexed assignment multi index", "m = [[1.5,2.5],[3.5,4.5]]; m[0,1] = 0.0; return( m);"),
		body("indexed assignment bool", "v = [true,true]; v[0] = false; return( v);"),
		body("if else chain", "x = 0; r = 0; if (x < 0) { r = -1; } else if (x == 0) { r = 5; } else { r = 1; } return( r);"),
		body("if without else", "r = 1; if (false) { r = 2; } return( r);"),
		body("while", "n = 0; while (n < 5) { n = n + 1; } return( n);"),
		body("for", "s = 0; for( i = 0; i < 10; i++) { s = s + i; } return( s);"),
		body("for without init and post", "i = 0; for( ; i < 3; ) { i = i + 1; } return( i);"),
		body("for with assignment post", "s = 0; for( i = 10; i > 0; i = i - 3) { s = s + i; } return( s);"),
		body("for never entered", "s = 7; for( i = 0; i < 0; i++) { s = 0; } return( s);"),
		body("return from while", "n = 0; while (true) { n = n + 1; if (n == 4) { return( n); } } return( 0);"),
		body("return from for", "for( i = 0; i < 9; i++) { if (i == 6) { return( i); } } return( 0);"),
		body("return from nested loops", "for( i = 0; i < 9; i++) { j = 0; while (j < 9) { if (i*j == 12) { return( i*10 + j); } j = j + 1; } } return( 0);"),
		body("post runs after body", "t = 0; for( i = 0; i < 3; i++) { t = t*10 + i; } return( t*10 + i);"),
		{name: "void return", src: "void main() { x = 1; return; }"},
		{name: "void without return", src: "void main() { x = 1; }"},
		{name: "missing return", src: "int f() { x = 1; } int main() { return( f()); }"},
		{name: "recursion", src: "int fib( int n) { r = n; if (n > 1) { r = fib(n-1) + fib(n-2); } return( r); } int main() { return( fib(15)); }"},
		{name: "user function shadows builtin", src: "int dim( int x) { return( 42); } int main() { return( dim( [1,2])); }"},
		{name: "print", src: "int main() { print( 1, [1.5,2.5]); print( [[true,false],[false,true]]); print(); return( 0); }"},
		{name: "comments", src: "int main() { // line\n /* block\n */ return( 1); }"},
		{name: "type annotations", src: "int[.,.] f( int[3,7] a, bool[*] b, double[.] c, int[] d) { return( a); } int[*] main() { return( f( 1, 2, 3, 4)); }"},
		{name: "entry with arguments", src: "int main( int a, int[.] v) { return( a + v[1]); }", args: []Value{IntScalar(3), IntVector(10, 20)}},
		{name: "entry argument count", src: "int main( int a) { return( a); }"},
		{name: "entry undefined", src: "int f() { return( 1); }"},
		{name: "snet_out in a box", src: "void main( int n) { for( i = 0; i < n; i++) { snet_out( 1, i*i, [i]); } snet_out( 2); return; }",
			args: []Value{IntScalar(3)}, box: true},
		{name: "snet_out refused by the box", src: "void main() { snet_out( 99, 1); return; }", box: true},
		{name: "snet_out without variant", src: "void main() { snet_out(); return; }", box: true},
		{name: "snet_out variant not an int", src: "void main() { snet_out( true); return; }", box: true},
	}
}

func withLoopCases() []goldenCase {
	cs := []goldenCase{
		expr("genarray int", "with { ([0,0] <= iv < [3,5]) : iv[0]*10 + iv[1]; } : genarray( [3,5], 0)"),
		expr("genarray bool", "with { ([1] <= iv < [4]) : iv[0] == 2; } : genarray( [5], true)"),
		expr("genarray double", "with { ([0] <= iv < [4]) : tod( iv[0]) * 0.5; } : genarray( [4], 9.5)"),
		expr("genarray partial", "with { ([1] <= iv < [4]) : 42; } : genarray( [5], 0)"),
		expr("genarray overlap, later wins", "with { ([1] <= iv < [4]) : 1; ([3] <= iv < [5]) : 2; } : genarray( [6], 0)"),
		expr("genarray no generators", "with { } : genarray( [2,2], 7)"),
		expr("genarray scalar shape", "with { ([0] <= iv < [3]) : 1; } : genarray( 3, 0)"),
		expr("genarray empty shape", "with { } : genarray( [0], 0)"),
		expr("genarray rank 0", "with { } : genarray( [], 5)"),
		expr("inclusive upper", "with { ([1] <= iv <= [3]) : 7; } : genarray( [5], 0)"),
		expr("exclusive lower", "with { ([1] < iv < [4]) : 7; } : genarray( [5], 0)"),
		expr("exclusive lower inclusive upper", "with { ([0,0] < iv <= [2,2]) : 1; } : genarray( [3,3], 0)"),
		expr("scalar bounds", "with { (1 <= iv < 4) : iv[0]; } : genarray( [5], 0)"),
		expr("empty range", "with { ([3] <= iv < [1]) : 1; } : genarray( [4], 0)"),
		expr("additive bounds", "with { ([0] + 1 <= iv < [2] + [2]) : 1; } : genarray( [5], 0)"),
		expr("bound from call and index", "with { (shape( [7,7])  - 1 <= iv < [10][0] - 6) : 1; } : genarray( [5], 0)"),
		expr("modarray int", "with { ([0] <= iv < [3]) : 3; } : modarray( [9,9,9,2,2,0])"),
		expr("modarray bool", "with { ([0,1] <= iv <= [1,1]) : false; } : modarray( [[true,true],[true,true]])"),
		expr("modarray double", "with { ([1] <= iv < [2]) : 0.25; } : modarray( [1.5,2.5,3.5])"),
		expr("modarray reads its source", "with { ([0] <= iv < [3]) : [10,20,30][iv] + 1; } : modarray( [10,20,30])"),
		expr("modarray 3d closed rows", "with { ([0,0,1] <= iv <= [1,1,1]) : 0; ([1,0,0] <= iv <= [1,0,2]) : 5; } : modarray( with { ([0,0,0] <= iv < [2,2,3]) : iv[0]*100 + iv[1]*10 + iv[2]; } : genarray( [2,2,3], 0))"),
		expr("fold + int", "with { ([0] <= iv < [100]) : iv[0]; } : fold( +, 0)"),
		expr("fold * int", "with { ([1] <= iv <= [6]) : iv[0]; } : fold( *, 1)"),
		expr("fold min int", "with { ([0] <= iv < [50]) : (iv[0] - 20) * (iv[0] - 20); } : fold( min, 9999)"),
		expr("fold max int", "with { ([0] <= iv < [50]) : 100 - (iv[0] - 33) * (iv[0] - 33); } : fold( max, 0)"),
		expr("fold add mul names", "with { ([1] <= iv < [5]) : iv[0]; } : fold( add, 0) * with { ([1] <= iv < [5]) : iv[0]; } : fold( mul, 1)"),
		expr("fold + double", "with { ([0] <= iv < [8]) : tod( iv[0]) * 0.5; } : fold( +, 0.0)"),
		expr("fold * double", "with { ([1] <= iv < [5]) : tod( iv[0]) * 0.5; } : fold( *, 1.0)"),
		expr("fold min double", "with { ([0] <= iv < [8]) : tod( iv[0]) - 3.5; } : fold( min, 100.0)"),
		expr("fold max double", "with { ([0] <= iv < [8]) : tod( iv[0]) - 3.5; } : fold( max, 0.0 - 100.0)"),
		expr("fold and", "with { ([0] <= iv < [5]) : iv[0] < 5; } : fold( and, true)"),
		expr("fold or", "with { ([0] <= iv < [5]) : iv[0] == 9; } : fold( or, false)"),
		expr("fold && ||", "with { ([0] <= iv < [5]) : iv[0] < 3; } : fold( &&, true) || with { ([0] <= iv < [5]) : iv[0] == 3; } : fold( ||, false)"),
		expr("fold two generators", "with { ([0] <= iv < [10]) : 1; ([0,0] <= jv < [3,3]) : 100; } : fold( +, 0)"),
		expr("fold no generators", "with { } : fold( +, 5)"),
		expr("fold 2d", "with { ([0,0] <= iv < [7,9]) : iv[0]*iv[1]; } : fold( +, 0)"),
		body("body reads the frame", "k = 3; v = [5,6,7,8]; return( with { ([0] <= iv < shape( v)) : v[iv] * k; } : genarray( shape( v), 0));"),
		body("nested with-loops", "return( with { ([0] <= iv < [4]) : with { ([0] <= jv <= iv) : jv[0]; } : fold( +, 0); } : genarray( [4], 0));"),
		{name: "body calls a function", src: "int sq( int x) { return( x*x); } int[*] main() { return( with { ([0,0] <= iv < [4,4]) : sq( iv[0]) + sq( iv[1]); } : genarray( [4,4], 0)); }"},
		body("index variable shadows", "iv = 5; a = with { ([0] <= iv < [3]) : iv[0]; } : genarray( [3], 0); return( a + iv);"),
		expr("20x20 product table", "with { ([0,0] <= iv < [20,20]) : iv[0]*iv[1]; } : genarray( [20,20], 0)"),
	}
	return cs
}

func builtinCases() []goldenCase {
	var cs []goldenCase
	arrays := []string{"[1,2,3,4,5]", "[true,false,false]", "[1.5,2.5,3.5]", "[[1,2,3],[4,5,6]]", "[[true,false],[false,false]]", "[[0.5,1.5]]", "7"}
	for _, a := range arrays {
		for _, call := range []string{
			"dim( %s)", "shape( %s)", "take( %s, 2)", "take( %s, -1)", "take( %s, 0)", "drop( %s, 1)", "drop( %s, -2)",
			"tile( %s, 2)", "tile( %s, 0)", "rotate( 0, 1, %s)", "rotate( 0, -1, %s)", "rotate( 1, 1, %s)",
			"reverse( 0, %s)", "reverse( 1, %s)", "transpose( %s)", "sel( [0], %s)", "sel( 1, %s)", "sel( [0,1], %s)",
			"toi( %s)", "tod( %s)", "tob( %s)",
		} {
			e := fmt.Sprintf(call, a)
			cs = append(cs, expr(e, e))
		}
	}
	cs = append(cs,
		expr("toi truncates", "toi( [1.9, 0.0 - 1.9, 0.5])"),
		expr("tob of zero", "tob( [0, 1, -1])"),
		expr("min of vectors", "min( [1,9,3], [4,2,8]) + max( 1, [0,5,0])"),
		expr("sel on a cube", "sel( [1,0], with { ([0,0,0] <= iv < [2,2,2]) : iv[0]*4 + iv[1]*2 + iv[2]; } : genarray( [2,2,2], 0))"),
	)
	// The programs of stdlib_test.go.
	cs = append(cs,
		goldenCase{name: "stdlib take drop", src: Prelude + "int[*] main() { v = [1,2,3,4,5]; a = take( v, 2); b = drop( v, 3); return( a ++ b); }"},
		goldenCase{name: "stdlib rotate reverse", src: Prelude + "int[*] main() { v = [1,2,3,4]; return( rotate( 0, 1, v) ++ reverse( 0, v)); }"},
		goldenCase{name: "stdlib transpose", src: "int main() { m = with { ([0,0] <= iv < [2,3]) : iv[0]*10 + iv[1]; } : genarray([2,3], 0); mt = transpose( m); return( mt[2,1] * 100 + shape(mt)[0]); }"},
		goldenCase{name: "stdlib tile", src: "int[*] main() { return( tile( [7,8], 2)); }"},
		goldenCase{name: "stdlib take error", src: "int[*] main() { return( take( [1,2], 5)); }"},
		goldenCase{name: "stdlib reverse error", src: "int[*] main() { return( reverse( 3, [1,2])); }"},
		goldenCase{name: "stdlib transpose error", src: "int[*] main() { return( transpose( [1,2])); }"},
		goldenCase{name: "stdlib double structural", src: "double main() { v = [1.5, 2.5, 3.5]; w = reverse( 0, v); return( w[0] + take( v, 1)[0]); }"},
		goldenCase{name: "stdlib bool structural", src: "bool main() { v = [true, false, true]; return( reverse( 0, v)[0] == true && drop( v, 2)[0]); }"},
		goldenCase{name: "shape and dim", src: Prelude + "int[*] main() { a = with { ([0,0] <= iv < [3,7]) : 1; } : genarray( [3,7], 0); return( shape(a) ++ [dim(a)]); }"},
	)
	return cs
}

// failureCases has one program per way evaluation can refuse.
func failureCases() []goldenCase {
	cs := []goldenCase{
		body("sel out of bounds", "a = [1,2]; return( a[5]);"),
		body("sel negative", "a = [1,2]; return( a[-1]);"),
		body("sel out of bounds in a matrix", "m = [[1,2],[3,4]]; return( m[1,2]);"),
		expr("sel builtin out of bounds", "sel( [2], [1,2])"),
		body("index longer than rank", "a = [1,2]; return( a[0,0]);"),
		expr("sel builtin longer than rank", "sel( [0,0], [1,2])"),
		body("index not an int", "a = [1,2]; return( a[true]);"),
		body("index a matrix", "a = [1,2]; return( a[[[0]]]);"),
		body("multi index not scalar", "m = [[1,2],[3,4]]; return( m[[0],1]);"),
		body("partial indexed assignment", "m = [[1,2],[3,4]]; m[0] = 5; return( m);"),
		body("indexed assignment out of bounds", "a = [1,2]; a[2] = 5; return( a);"),
		body("indexed assignment negative", "a = [1,2]; a[-1] = 5; return( a);"),
		body("indexed assignment of another kind", "a = [1,2]; a[0] = true; return( a);"),
		body("indexed assignment of an array", "a = [1,2]; a[0] = [1]; return( a);"),
		body("indexed assignment to undefined", "a[0] = 1; return( a);"),
		body("assignment arity", "x, y = 1; return( x);"),
		body("assignment arity, too many", "x = 1, 2; return( x);"),
		expr("take past the extent", "take( [1,2], 5)"),
		expr("take past the extent, negative", "take( [1,2], -5)"),
		expr("drop past the extent", "drop( [1,2], 3)"),
		expr("tile negative", "tile( [1,2], -1)"),
		expr("take count not an int", "take( [1,2], true)"),
		expr("take count not a scalar", "take( [1,2], [1])"),
		expr("rotate axis out of range", "rotate( 3, 1, [1,2])"),
		expr("rotate axis negative", "rotate( -1, 1, [1,2])"),
		expr("rotate axis not an int", "rotate( 0.5, 1, [1,2])"),
		expr("rotate count not an int", "rotate( 0, [1], [1,2])"),
		expr("reverse axis out of range", "reverse( 3, [1.5,2.5])"),
		expr("reverse axis negative", "reverse( -1, [true])"),
		expr("reverse axis not an int", "reverse( true, [1,2])"),
		expr("transpose of a cube", "transpose( [[[1]]])"),
		expr("sel index not ints", "sel( [true], [1,2])"),
		expr("division by zero", "1/0"),
		expr("modulo by zero", "1%0"),
		expr("division by zero in a vector", "[1,2,3] % [1,0,1]"),
		expr("division by a zero scalar", "[1,2,3] / 0"),
		expr("division of a scalar by a vector with zero", "6 / [1,2,0]"),
		expr("double division by zero is not an error", "[1.0, 0.0 - 1.0] / 0.0 == [2.0, 0.0 - 2.0] / 0.0"),
		expr("division by zero in a with-loop body", "with { ([0] <= iv < [100]) : 100 / (iv[0] - 50); } : genarray( [100], 0)"),
		expr("division by zero in a fold body", "with { ([0,0] <= iv < [10,10]) : 100 % (iv[0]*10 + iv[1] - 99); } : fold( +, 0)"),
		expr("division by zero in a modarray body", "with { ([0] <= iv < [100]) : 1 / (99 - iv[0]); } : modarray( with { } : genarray( [100], 0))"),
		expr("shape mismatch", "[1,2] + [1,2,3]"),
		expr("shape mismatch in rank", "[[1,2]] * [1,2]"),
		expr("mixed types", "1 + true"),
		expr("mixed types, int vector and double", "[1,2] + 2.5"),
		expr("not of an int", "!1"),
		expr("negation of a bool", "-true"),
		expr("fold + on bool", "with { ([0] <= iv < [3]) : true; } : fold( +, true)"),
		expr("fold min on bool", "with { ([0] <= iv < [3]) : true; } : fold( min, true)"),
		expr("fold and on int", "with { ([0] <= iv < [3]) : 1; } : fold( and, 0)"),
		expr("fold or on double", "with { ([0] <= iv < [3]) : 1.0; } : fold( or, 0.0)"),
		expr("genarray body of another kind", "with { ([0] <= iv < [3]) : true; } : genarray( [3], 0)"),
		expr("genarray body int for double", "with { ([0] <= iv < [3]) : 1; } : genarray( [3], 0.5)"),
		expr("modarray body of another kind", "with { ([0] <= iv < [1]) : 1.5; } : modarray( [true])"),
		expr("fold body of another kind", "with { ([0] <= iv < [3]) : 1; } : fold( +, 0.0)"),
		expr("body not a scalar", "with { ([0] <= iv < [3]) : iv; } : genarray( [3], 0)"),
		expr("second generator's body of another kind", "with { ([0] <= iv < [3]) : 1; ([1] <= iv < [2]) : false; } : genarray( [3], 0)"),
		expr("body fails to evaluate", "with { ([0] <= iv < [3]) : nope; } : genarray( [3], 0)"),
		expr("non-scalar default", "with { } : genarray( [3], [0])"),
		expr("non-scalar neutral", "with { } : fold( +, [0])"),
		expr("bounds of different length", "with { ([0] <= iv < [3,3]) : 1; } : genarray( [3,3], 0)"),
		expr("bounds shorter than the shape", "with { ([0] <= iv < [3]) : 1; } : genarray( [3,3], 0)"),
		expr("bounds past the shape", "with { ([0] <= iv < [10]) : 1; } : genarray( [5], 0)"),
		expr("negative lower bound", "with { ([-1] <= iv < [3]) : 1; } : genarray( [5], 0)"),
		expr("modarray bounds past the source", "with { ([0] <= iv <= [3]) : 1; } : modarray( [1,2,3])"),
		expr("bound not an int", "with { ([0.5] <= iv < [3]) : 1; } : genarray( [5], 0)"),
		expr("bound a matrix", "with { ([[0]] <= iv < [3]) : 1; } : genarray( [5], 0)"),
		expr("upper bound fails to evaluate", "with { ([0] <= iv < nope) : 1; } : genarray( [5], 0)"),
		expr("negative genarray shape", "with { } : genarray( [-1], 0)"),
		expr("genarray shape not ints", "with { } : genarray( [1.5], 0)"),
		expr("genarray shape a matrix", "with { } : genarray( [[1,2],[3,4]], 0)"),
		expr("genarray shape fails to evaluate", "with { } : genarray( nope, 0)"),
		expr("genarray default fails to evaluate", "with { } : genarray( [1], nope)"),
		expr("modarray source fails to evaluate", "with { } : modarray( nope)"),
		expr("fold neutral fails to evaluate", "with { } : fold( +, nope)"),
		expr("tod of a bool", "tod( true)"),
		expr("tob of a double", "tob( 1.5)"),
		body("undefined variable", "return( x);"),
		body("undefined function", "return( nofun( 1));"),
		body("argument fails to evaluate", "return( dim( nope));"),
		{name: "user argument fails to evaluate", src: "int f( int a) { return( a); } int main() { return( f( nope)); }"},
		{name: "user argument count", src: "int f( int a) { return( a); } int main() { return( f( 1, 2)); }"},
		body("snet_out outside a box", "snet_out( 1, 2); return( 0);"),
		{name: "multi-value call in single-value context", src: "int, int two() { return( 1, 2); } int main() { return( two() + 1); }"},
		{name: "void call in single-value context", src: "void f() { return; } int main() { x = 1 + f(); return( x); }"},
		body("if condition not a bool", "if (3) { } return( 0);"),
		body("if condition not a scalar", "if ([true]) { } return( 0);"),
		body("while condition not a bool", "while (1) { } return( 0);"),
		body("for condition not a bool", "for( i = 0; i; i++) { } return( 0);"),
		body("for init fails", "for( i = nope; i < 3; i++) { } return( 0);"),
		body("for post fails", "for( i = 0; i < 3; i = nope) { } return( 0);"),
		body("for body fails", "for( i = 0; i < 3; i++) { x = nope; } return( 0);"),
		body("while body fails", "while (true) { x = 1/0; } return( 0);"),
		body("unary operand fails", "return( -nope);"),
		body("binary left fails", "return( nope + 1);"),
		body("binary right fails", "return( 1 + nope);"),
		body("array literal element fails", "return( [1, nope]);"),
		body("index expression fails", "a = [1]; return( a[nope]);"),
		body("indexed value fails", "return( nope[0]);"),
		body("return value fails", "return( 1, nope);"),
		body("error in a called function names its position", "return( f());\n}\nint f() {\n  return( 1/0);"),
	}
	// Every builtin with one argument too few and one too many.
	for _, b := range []struct {
		name string
		n    int
	}{{"dim", 1}, {"shape", 1}, {"sel", 2}, {"toi", 1}, {"tod", 1}, {"tob", 1}, {"min", 2}, {"max", 2},
		{"take", 2}, {"drop", 2}, {"tile", 2}, {"rotate", 3}, {"reverse", 2}, {"transpose", 1}} {
		for _, n := range []int{b.n - 1, b.n + 1} {
			e := b.name + "( " + strings.TrimSuffix(strings.Repeat("[1], ", n), ", ") + ")"
			cs = append(cs, expr("argument count: "+e, e))
		}
	}
	return cs
}

// parseCases are programs Parse refuses, each pinned with its position.
func parseCases() []goldenCase {
	var cs []goldenCase
	for _, src := range []string{
		"int main( { }",
		"int main() { return( 1) }",
		"int main() { x = ; }",
		"main() { }",
		"int main() { with { } : genarray(); }",
		"int main() { for(;;) { } }",
		"int main() { @ }",
		"int main() { /* }",
		"int main() { return( with { ([0] <= iv < [3]) : 1; } : blah( x)); }",
		"int main() { return( 1);",
		"int main() { return( 1); } int main() { return( 2); }",
		"int 5() { }",
		"int, main() { }",
		"int[3,] main() { }",
		"int[*,x] main() { }",
		"int[. main() { }",
		"int main( int) { }",
		"int main( int a int b) { }",
		"int main() { 5 = 1; }",
		"int main() { x, 5 = 1; }",
		"int main() { x y; }",
		"int main() { x[1 = 2; }",
		"int main() { x[1] 2; }",
		"int main() { x[1] = 2 }",
		"int main() { x = 1, ; }",
		"int main() { f( 1; }",
		"int main() { f( 1) }",
		"int main() { f( 1, ); }",
		"int main() { return 1; }",
		"int main() { return( 1, ); }",
		"int main() { return( 1; }",
		"int main() { if x { } }",
		"int main() { if (x { } }",
		"int main() { if (x) return( 1); }",
		"int main() { if (x) { } else return( 1); }",
		"int main() { while x { } }",
		"int main() { while (x { } }",
		"int main() { while (x) x = 1; }",
		"int main() { for i = 0; i < 3; i++) { } }",
		"int main() { for( 5; i < 3; i++) { } }",
		"int main() { for( i; i < 3; i++) { } }",
		"int main() { for( i = 0 i < 3; i++) { } }",
		"int main() { for( i = 0; i < 3 i++) { } }",
		"int main() { for( i = 0; i < 3; i--) { } }",
		"int main() { for( i = 0; i < 3; i++ { } }",
		"int main() { x = 1 + ; }",
		"int main() { x = 1 * ; }",
		"int main() { x = 1 < ; }",
		"int main() { x = 1 && ; }",
		"int main() { x = 1 || ; }",
		"int main() { x = -; }",
		"int main() { x = !; }",
		"int main() { x = (1; }",
		"int main() { x = [1, 2; }",
		"int main() { x = [1, ]; }",
		"int main() { x = a[1; }",
		"int main() { x = a[]; }",
		"int main() { x = a[1,]; }",
		"int main() { x = 1 & 2; }",
		"int main() { x = 1 | 2; }",
		"int main() { x = with ([0] <= iv < [3]) : 1; } : genarray( [3], 0); }",
		"int main() { x = with { [0] <= iv < [3]) : 1; } : genarray( [3], 0); }",
		"int main() { x = with { ([0] == iv < [3]) : 1; } : genarray( [3], 0); }",
		"int main() { x = with { ([0] <= 5 < [3]) : 1; } : genarray( [3], 0); }",
		"int main() { x = with { ([0] <= iv > [3]) : 1; } : genarray( [3], 0); }",
		"int main() { x = with { ([0] <= iv < [3] : 1; } : genarray( [3], 0); }",
		"int main() { x = with { ([0] <= iv < [3]) 1; } : genarray( [3], 0); }",
		"int main() { x = with { ([0] <= iv < [3]) : 1 } : genarray( [3], 0); }",
		"int main() { x = with { ([0] <= iv < [3]) : ; } : genarray( [3], 0); }",
		"int main() { x = with { ([0] <= iv < ) : 1; } : genarray( [3], 0); }",
		"int main() { x = with { ( <= iv < [3]) : 1; } : genarray( [3], 0); }",
		"int main() { x = with { ([0] <= iv < [3]) : 1; } genarray( [3], 0); }",
		"int main() { x = with { ([0] <= iv < [3]) : 1; } : 5( [3], 0); }",
		"int main() { x = with { ([0] <= iv < [3]) : 1; } : genarray [3], 0); }",
		"int main() { x = with { ([0] <= iv < [3]) : 1; } : genarray( [3]); }",
		"int main() { x = with { ([0] <= iv < [3]) : 1; } : genarray( [3], ); }",
		"int main() { x = with { ([0] <= iv < [3]) : 1; } : genarray( [3], 0; }",
		"int main() { x = with { ([0] <= iv < [3]) : 1; } : genarray( , 0); }",
		"int main() { x = with { ([0] <= iv < [3]) : 1; } : modarray( ); }",
		"int main() { x = with { ([0] <= iv < [3]) : 1; } : fold( blah, 0); }",
		"int main() { x = with { ([0] <= iv < [3]) : 1; } : fold( -, 0); }",
		"int main() { x = with { ([0] <= iv < [3]) : 1; } : fold( + 0); }",
		"int main() { x = with { ([0] <= iv < [3]) : 1; } : fold( +, ); }",
		"int main() { x = with { ([0] <= iv < [3]) : 1;",
		"int main() {\n  x = 1;\n  y = $;\n}",
		"int main() {\n\treturn( 1 +\n\t\t);\n}",
	} {
		cs = append(cs, goldenCase{name: fmt.Sprintf("parse %q", src), src: src})
	}
	return cs
}

// literalCases are number literals at and past the edges of int and double.
func literalCases() []goldenCase {
	cs := []goldenCase{
		expr("literal 1e308 written out", "1"+strings.Repeat("0", 308)+".0"),
		expr("literal 1e400 written out", "1"+strings.Repeat("0", 400)+".0"),
		expr("literal 1e-400 written out", "0."+strings.Repeat("0", 399)+"1"),
	}
	for _, e := range []string{
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775807 - 1",
		"99999999999999999999999999", "0.000001", "123456789.125",
		"1٣", "1.٣", "٣ + 1", "x٣", "007", "1.", "1.e5", ".5", "1.5.5", "1e5", "0x10",
	} {
		cs = append(cs, expr("literal "+e, e))
	}
	return cs
}

// embeddedCases calls every function of the embedded programs: the 9×9
// solver on Easy, the generalised one on Easy and on a 4×4 board.
func embeddedCases() []goldenCase {
	easy := IntValue(mustBoard9())
	solved := IntValue(array.FromSlice([]int{9, 9}, digits("534678912672195348198342567859761423426853791713924856961537284287419635345286179")))
	small := IntValue(mustBoard4())
	opts := func(src, fn string, board Value) (Value, Value) {
		out, err := New(MustParse(src), sched.New(1)).Call(fn, []Value{board}, nil)
		if err != nil {
			panic(err)
		}
		return out[0], out[1]
	}
	cur9, opts9 := opts(SudokuSaC, "computeOpts", easy)
	cur4, opts4 := opts(SudokuGenSaC, "computeOptsGen", small)
	i, j, k := IntScalar(0), IntScalar(2), IntScalar(4)
	cs := []goldenCase{
		{name: "Prelude ++", src: Prelude, fn: "++", args: []Value{IntVector(1, 2, 3), IntVector(4, 5)}},
		{name: "Prelude ++ empty", src: Prelude, fn: "++", args: []Value{IntVector(), IntVector(4, 5)}},
		{name: "SudokuSaC computeOpts Easy", src: SudokuSaC, fn: "computeOpts", args: []Value{easy}},
		{name: "SudokuSaC addNumber Easy", src: SudokuSaC, fn: "addNumber", args: []Value{i, j, k, cur9, opts9}},
		{name: "SudokuSaC isCompleted Easy", src: SudokuSaC, fn: "isCompleted", args: []Value{easy}},
		{name: "SudokuSaC isCompleted solved", src: SudokuSaC, fn: "isCompleted", args: []Value{solved}},
		{name: "SudokuSaC countAt Easy", src: SudokuSaC, fn: "countAt", args: []Value{opts9, i, j}},
		{name: "SudokuSaC isStuck Easy", src: SudokuSaC, fn: "isStuck", args: []Value{cur9, opts9}},
		{name: "SudokuSaC findMinTrues Easy", src: SudokuSaC, fn: "findMinTrues", args: []Value{opts9}},
		{name: "SudokuSaC solve Easy", src: SudokuSaC, fn: "solve", args: []Value{cur9, opts9}},
		{name: "SudokuSaC solveOneLevel Easy", src: SudokuSaC, fn: "solveOneLevel", args: []Value{cur9, opts9}, box: true},
		{name: "SudokuSaC solveOneLevel outside a box", src: SudokuSaC, fn: "solveOneLevel", args: []Value{cur9, opts9}},
	}
	for _, b := range []struct {
		name      string
		n         int
		board     Value
		cur, opts Value
	}{{"Easy", 9, easy, cur9, opts9}, {"4x4", 4, small, cur4, opts4}} {
		gen := func(fn string, args ...Value) goldenCase {
			return goldenCase{name: "SudokuGenSaC " + fn + " " + b.name, src: SudokuGenSaC, fn: fn, args: args}
		}
		cs = append(cs,
			gen("isqrt", IntScalar(b.n)),
			gen("computeOptsGen", b.board),
			gen("addNumberGen", IntScalar(1), j, k, b.cur, b.opts),
			gen("isCompletedGen", b.board),
			gen("countAtGen", b.opts, IntScalar(1), j),
			gen("isStuckGen", b.cur, b.opts),
			gen("findMinTruesGen", b.opts),
			gen("solveGen", b.cur, b.opts),
		)
	}
	return cs
}

func digits(s string) []int {
	out := make([]int, len(s))
	for i, r := range s {
		out[i] = int(r - '0')
	}
	return out
}
