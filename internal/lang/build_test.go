package lang

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

// runAll is this package's one route from a built net to its outputs: the
// net's plan, run once over inputs.
func runAll(t *testing.T, net core.Node, inputs []*core.Record) ([]*core.Record, *core.Stats, error) {
	t.Helper()
	plan, _ := core.Compile(net) // findings are other tests' subject
	return plan.RunAll(context.Background(), inputs)
}

func incFn(delta int) core.BoxFunc {
	return func(args []any, out *core.Emitter) error {
		return out.Out(1, args[0].(int)+delta)
	}
}

func decDoneFn() core.BoxFunc {
	return func(args []any, out *core.Emitter) error {
		n := args[0].(int)
		if n <= 0 {
			return out.Out(2, 0, 1)
		}
		return out.Out(1, n-1)
	}
}

func TestBuildAndRunPipeline(t *testing.T) {
	net, err := BuildText(`
		box incA (<n>) -> (<n>);
		box incB (<n>) -> (<n>);
		net main connect incA .. incB;
	`, "main", NewRegistry().
		RegisterFunc("incA", incFn(1)).
		RegisterFunc("incB", incFn(10)))
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := runAll(t, net,
		[]*core.Record{core.NewRecord().SetTag("n", 0)})
	if err != nil || len(out) != 1 {
		t.Fatalf("out=%v err=%v", out, err)
	}
	if v, _ := out[0].Tag("n"); v != 11 {
		t.Fatalf("n = %d", v)
	}
}

func TestBuildStarLoop(t *testing.T) {
	net, err := BuildText(`
		box dec (<n>) -> (<n>) | (<n>,<done>);
		net loop connect dec ** {<done>};
	`, "loop", NewRegistry().RegisterFunc("dec", decDoneFn()))
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := runAll(t, net,
		[]*core.Record{core.NewRecord().SetTag("n", 5)})
	if err != nil || len(out) != 1 {
		t.Fatalf("out=%v err=%v", out, err)
	}
	if _, ok := out[0].Tag("done"); !ok {
		t.Fatal("loop did not terminate via <done>")
	}
	if stats.Counter("star.loop.star.replicas") != 6 {
		t.Fatalf("replicas = %d (keys: %v)", stats.Counter("star.loop.star.replicas"), stats.Keys())
	}
}

func TestBuildSplitAndFilter(t *testing.T) {
	net, err := BuildText(`
		box work (<n>) -> (<n>);
		net main connect [{<n>} -> {<n>=<n>, <k>=<n>%3}] .. (work !! <k>);
	`, "main", NewRegistry().RegisterFunc("work", incFn(100)))
	if err != nil {
		t.Fatal(err)
	}
	var inputs []*core.Record
	for i := 0; i < 9; i++ {
		inputs = append(inputs, core.NewRecord().SetTag("n", i))
	}
	out, stats, err := runAll(t, net, inputs)
	if err != nil || len(out) != 9 {
		t.Fatalf("out=%d err=%v", len(out), err)
	}
	if stats.Counter("split.main.split.replicas") != 3 {
		t.Fatalf("replicas = %d", stats.Counter("split.main.split.replicas"))
	}
}

func TestBuildNestedNets(t *testing.T) {
	net, err := BuildText(`
		box inc (<n>) -> (<n>);
		net stage connect inc .. inc;
		net main connect stage .. stage;
	`, "main", NewRegistry().RegisterFunc("inc", incFn(1)))
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := runAll(t, net,
		[]*core.Record{core.NewRecord().SetTag("n", 0)})
	if err != nil || len(out) != 1 {
		t.Fatal(err)
	}
	if v, _ := out[0].Tag("n"); v != 4 {
		t.Fatalf("n = %d, want 4 increments", v)
	}
}

func TestBuildNetBodyScope(t *testing.T) {
	reg := NewRegistry().RegisterFunc("inner", incFn(1)).RegisterFunc("outer", incFn(2))
	_, err := BuildText(`
		box outer (<n>) -> (<n>);
		net sub {
			box inner (<n>) -> (<n>);
		} connect inner .. outer;
		net main connect sub;
	`, "main", reg)
	if err != nil {
		t.Fatal(err)
	}
	// inner is local to sub: referencing it from main must fail.
	_, err = BuildText(`
		box outer (<n>) -> (<n>);
		net sub {
			box inner (<n>) -> (<n>);
		} connect inner;
		net main connect inner;
	`, "main", reg)
	if err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Fatalf("scope leak: %v", err)
	}
}

func TestBuildRegisteredNodeOverride(t *testing.T) {
	pre := core.NewBox("pre", core.MustParseSignature("(<n>) -> (<n>)"), incFn(7))
	net, err := BuildText(`
		box pre (<n>) -> (<n>);
		net main connect pre;
	`, "main", NewRegistry().RegisterNode("pre", pre))
	if err != nil {
		t.Fatal(err)
	}
	out, _, _ := runAll(t, net,
		[]*core.Record{core.NewRecord().SetTag("n", 0)})
	if v, _ := out[0].Tag("n"); v != 7 {
		t.Fatalf("n = %d", v)
	}
}

func TestBuildErrors(t *testing.T) {
	reg := NewRegistry().RegisterFunc("a", incFn(1))
	cases := []struct{ src, want string }{
		{"box a (x) -> (x); net n connect missing;", "undefined"},
		{"box nofn (x) -> (x); net n connect nofn;", "no implementation"},
		{"box a (x) -> (x); box a (x) -> (x); net n connect a;", "duplicate"},
		{"box a (x) -> (x); net a connect a;", "duplicate"},
	}
	for _, c := range cases {
		if _, err := BuildText(c.src, "n", reg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%q: err = %v, want %q", c.src, err, c.want)
		}
	}
	if _, err := BuildText("box a (x) -> (x); net n connect a;", "ghost", reg); err == nil {
		t.Fatal("unknown net name must fail")
	}
}

func TestBuildDeterministicVariants(t *testing.T) {
	net, err := BuildText(`
		box dec (<n>) -> (<n>) | (<n>,<done>);
		net loop connect dec * {<done>};
	`, "loop", NewRegistry().RegisterFunc("dec", decDoneFn()))
	if err != nil {
		t.Fatal(err)
	}
	inputs := []*core.Record{
		core.NewRecord().SetTag("n", 5).SetTag("seq", 0),
		core.NewRecord().SetTag("n", 1).SetTag("seq", 1),
		core.NewRecord().SetTag("n", 3).SetTag("seq", 2),
	}
	out, _, err := runAll(t, net, inputs)
	if err != nil || len(out) != 3 {
		t.Fatalf("out=%d err=%v", len(out), err)
	}
	for i, r := range out {
		if v, _ := r.Tag("seq"); v != i {
			t.Fatalf("det star broke order: %v", out)
		}
	}
}

func TestBuildSync(t *testing.T) {
	net, err := BuildText(`net j connect [| {a}, {b} |];`, "j", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := runAll(t, net, []*core.Record{
		core.NewRecord().SetField("a", 1),
		core.NewRecord().SetField("b", 2),
	})
	if err != nil || len(out) != 1 {
		t.Fatalf("out=%v err=%v", out, err)
	}
	if _, ok := out[0].Field("b"); !ok {
		t.Fatal("join lost b")
	}
}

// CompileNet maps definite type errors back to .snet source positions.
func TestCompileNetPositions(t *testing.T) {
	src := `box produce (n) -> (a,b);
box eatAB (a,b) -> (r);
box eatAC (a,c) -> (r);

net main connect
  produce .. (eatAB || eatAC);
`
	reg := NewRegistry().
		RegisterFunc("produce", incFn(0)).
		RegisterFunc("eatAB", incFn(0)).
		RegisterFunc("eatAC", incFn(0))
	plan, err := CompileNet(MustParse(src), "main", reg)
	if err == nil {
		t.Fatal("CompileNet accepted a net with an unreachable branch")
	}
	if plan == nil {
		t.Fatal("CompileNet returned nil plan alongside type errors")
	}
	var ce *core.CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T is not *core.CompileError", err)
	}
	te := ce.Errors[0]
	if te.Code != core.ErrCodeUnreachable {
		t.Fatalf("code = %q (err %v)", te.Code, err)
	}
	// The unreachable branch is eatAC, declared on line 3.
	if te.Pos != "3:1" {
		t.Fatalf("Pos = %q, want 3:1 (err: %v)", te.Pos, te)
	}
	if !strings.Contains(te.Error(), "3:1") {
		t.Fatalf("rendered error lost the position: %v", te)
	}
}

// CompileNet on a clean program returns the plan with its topology intact.
func TestCompileNetClean(t *testing.T) {
	src := `box inc (<n>) -> (<n>);
net main connect inc .. inc;
`
	reg := NewRegistry().RegisterFunc("inc", incFn(1))
	plan, err := CompileNet(MustParse(src), "main", reg)
	if err != nil {
		t.Fatalf("CompileNet: %v", err)
	}
	if plan.Topology().Kind != "serial" {
		t.Fatalf("topology: %+v", plan.Topology())
	}
}

// Regression: parse errors in multi-line programs keep exact line/column
// positions past the first line.
func TestParseErrorPositionsMultiLine(t *testing.T) {
	cases := []struct{ src, wantPos string }{
		{"box a (x) -> (y);\nbox b (y) -> (z);\nnet bad connect a ..;\n", "3:21"},
		{"/* multi\nline\ncomment */\nnet n connect &;\n", "4:15"},
		{"box a (x) -> (y);\r\nnet n connect &;\r\n", "2:15"},
		{"box a (x)\n  -> (y)\n  | (z;\n", "3:7"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Fatalf("Parse accepted %q", tc.src)
		}
		var perr *Error
		if !errors.As(err, &perr) {
			t.Fatalf("%q: err %T", tc.src, err)
		}
		if got := perr.Pos.String(); got != tc.wantPos {
			t.Fatalf("%q: pos %s, want %s", tc.src, got, tc.wantPos)
		}
	}
}
