package core

import (
	"strings"
	"testing"
)

func TestInferBoxSignature(t *testing.T) {
	b := NewBox("foo", MustParseSignature("(a,<b>) -> (c) | (c,d,<e>)"), nopFn)
	in, out, _ := check(b)
	if len(in) != 1 || !in[0].Equal(v(Field("a"), Tag("b"))) {
		t.Fatalf("in = %v", in)
	}
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
}

var nopFn = func(args []any, out *Emitter) error { return nil }

// check compiles n and returns what the plan inferred: its input and output
// types and the non-fatal findings.
func check(n Node) (in, out RecType, diags []Diagnostic) {
	p, _ := Compile(n)
	return p.In(), p.Out(), p.Warnings()
}

func TestInferSerialComposition(t *testing.T) {
	a := NewBox("a", MustParseSignature("(x) -> (y)"), nopFn)
	b := NewBox("b", MustParseSignature("(y) -> (z)"), nopFn)
	in, out, diags := check(Serial(a, b))
	if !in[0].Equal(v(Field("x"))) || !out[0].Equal(v(Field("z"))) {
		t.Fatalf("in=%v out=%v", in, out)
	}
	for _, d := range diags {
		if !d.Warning {
			t.Fatalf("unexpected error: %v", d)
		}
	}
}

// A producer whose output the consumer's signature does not accept is not a
// matter of opinion once the flow pass has carried the inherited labels along:
// {y} reaches b, b wants q, and that is a box-reject with no warning beside it.
func TestSerialMismatchIsBoxReject(t *testing.T) {
	a := NewBox("a", MustParseSignature("(x) -> (y)"), nopFn)
	b := NewBox("b", MustParseSignature("(q) -> (z)"), nopFn)
	plan, err := Compile(Serial(a, b))
	errs := plan.TypeErrors()
	if err == nil || len(errs) != 1 || errs[0].Code != ErrCodeBoxReject || errs[0].Node != "b" ||
		!errs[0].Variant.Equal(v(Field("y"))) {
		t.Fatalf("type errors = %v (%v)", errs, err)
	}
	if w := plan.Warnings(); len(w) != 0 {
		t.Fatalf("warnings = %v", w)
	}
	// The same pair fed a record that carries q along is accepted: q is
	// inherited through a.
	if _, err := Compile(Serial(a, b), WithInputType(RecType{v(Field("x"), Field("q"))})); err != nil {
		t.Fatalf("with q inherited: %v", err)
	}
}

func TestInferParallelUnion(t *testing.T) {
	a := NewBox("a", MustParseSignature("(x) -> (u)"), nopFn)
	b := NewBox("b", MustParseSignature("(y) -> (w)"), nopFn)
	in, out, _ := check(Parallel(a, b))
	if len(in) != 2 || len(out) != 2 {
		t.Fatalf("in=%v out=%v", in, out)
	}
}

func TestInferStar(t *testing.T) {
	// dec's second variant carries <done>: exit statically reachable.
	n := Star(decBox(), MustParsePattern("{<done>}"))
	in, out, diags := check(n)
	if len(diags) != 0 {
		t.Fatalf("diags = %v", diags)
	}
	// Input accepts the operand's input or an immediately-exiting record.
	if len(in) != 2 {
		t.Fatalf("in = %v", in)
	}
	if !out[0].Equal(v(Tag("done"))) {
		t.Fatalf("out = %v", out)
	}
}

// A star whose operand can never produce the exit pattern is seen exactly by
// the flow pass: fed {<n>} alone its exit set stays empty (what
// internal/analysis reports as star-divergence); under the inferred input
// type, which holds the immediately exiting {<done>}, something does leave.
func TestStarUnreachableExitLeavesNoExitFlow(t *testing.T) {
	n := Star(incBox("spin", 1), MustParsePattern("{<done>}"))
	plan, err := Compile(n, WithInputType(RecType{v(Tag("n"))}))
	if g := plan.Graph(); err != nil || len(plan.Warnings()) != 0 || !g.Visited || len(g.FlowOut) != 0 ||
		!g.Children[0].Visited || g.Children[0].Parent != g {
		t.Fatalf("declared {<n>}: err %v, warnings %v, graph %+v", err, plan.Warnings(), g)
	}
	_, _, diags := check(n)
	if g := MustCompile(n).Graph(); len(diags) != 0 || len(g.FlowOut) != 1 || !g.FlowOut[0].Equal(v(Tag("done"))) {
		t.Fatalf("inferred input: diags %v, exit flow %v", diags, g.FlowOut)
	}
}

func TestInferSplitAddsIndexTag(t *testing.T) {
	n := Split(incBox("i", 0), "k")
	in, out, _ := check(n)
	if !in[0].Equal(v(Tag("n"), Tag("k"))) {
		t.Fatalf("in = %v", in)
	}
	if !out[0].Equal(v(Tag("n"))) {
		t.Fatalf("out = %v", out)
	}
}

func TestInferFilter(t *testing.T) {
	n := MustFilter("{a,<c>} -> {a,<t>}")
	in, out, _ := check(n)
	if !in[0].Equal(v(Field("a"), Tag("c"))) {
		t.Fatalf("in = %v", in)
	}
	if !out[0].Equal(v(Field("a"), Tag("t"))) {
		t.Fatalf("out = %v", out)
	}
}

func TestInferSync(t *testing.T) {
	n := Sync(MustParsePattern("{a}"), MustParsePattern("{b,<t>}"))
	in, out, _ := check(n)
	if len(in) != 2 {
		t.Fatalf("in = %v", in)
	}
	if !out[0].Equal(v(Field("a"), Field("b"), Tag("t"))) {
		t.Fatalf("out = %v", out)
	}
}

// TestInferTable is the table-driven sweep over every combinator: for each
// network it checks the inferred input/output types and, through Compile,
// the definite findings — including flow inheritance through boxes and tag
// guards on star exit patterns.
func TestInferTable(t *testing.T) {
	echo := func(name, sig string) Node {
		return NewBox(name, MustParseSignature(sig),
			func(args []any, out *Emitter) error { return out.Out(1, args...) })
	}
	cases := []struct {
		name     string
		net      func() Node
		opts     []CompileOption
		wantIn   RecType
		wantOut  RecType
		wantErrs []string // expected TypeError codes, in order; empty = clean
	}{
		{
			name:    "box",
			net:     func() Node { return echo("b", "(a,<t>) -> (a,<t>)") },
			wantIn:  RecType{NewVariant(Field("a"), Tag("t"))},
			wantOut: RecType{NewVariant(Field("a"), Tag("t"))},
		},
		{
			name:    "filter",
			net:     func() Node { return MustFilter("{a,<c>} -> {a,<t>}") },
			wantIn:  RecType{NewVariant(Field("a"), Tag("c"))},
			wantOut: RecType{NewVariant(Field("a"), Tag("t"))},
		},
		{
			name: "serial-flow-inheritance",
			net: func() Node {
				// b consumes y and z; z only arrives because a's box
				// inherits it from the input record.
				return Serial(echo("a", "(x) -> (y)"), echo("b", "(y,z) -> (w)"))
			},
			opts:    []CompileOption{WithInputType(RecType{NewVariant(Field("x"), Field("z"))})},
			wantIn:  RecType{NewVariant(Field("x"))},
			wantOut: RecType{NewVariant(Field("w"))},
		},
		{
			name: "parallel-union",
			net: func() Node {
				return Parallel(echo("p", "(a) -> (u)"), echo("q", "(b) -> (v)"))
			},
			wantIn:  RecType{NewVariant(Field("a")), NewVariant(Field("b"))},
			wantOut: RecType{NewVariant(Field("u")), NewVariant(Field("v"))},
		},
		{
			name: "parallel-det-shadowed",
			net: func() Node {
				return ParallelDet(echo("p", "(a) -> (u)"), echo("q", "(a) -> (v)"))
			},
			wantIn:   RecType{NewVariant(Field("a")), NewVariant(Field("a"))},
			wantOut:  RecType{NewVariant(Field("u")), NewVariant(Field("v"))},
			wantErrs: []string{ErrCodeUnreachable},
		},
		{
			name: "star-guarded-exit",
			net: func() Node {
				return Star(echo("lvl", "(board,<level>) -> (board,<level>)"),
					MustParsePattern("{<level>} | <level> > 40"))
			},
			opts:    []CompileOption{WithInputType(RecType{NewVariant(Field("board"), Tag("level"))})},
			wantIn:  RecType{NewVariant(Field("board"), Tag("level")), NewVariant(Tag("level"))},
			wantOut: RecType{NewVariant(Tag("level"))},
		},
		{
			name: "split-adds-index-tag",
			net: func() Node {
				return Split(echo("w", "(<n>) -> (<n>)"), "k")
			},
			wantIn:  RecType{NewVariant(Tag("n"), Tag("k"))},
			wantOut: RecType{NewVariant(Tag("n"))},
		},
		{
			name: "split-missing-tag",
			net: func() Node {
				return Serial(echo("a", "(x) -> (y)"), Split(echo("w", "(y) -> (y)"), "k"))
			},
			opts:     []CompileOption{WithInputType(RecType{NewVariant(Field("x"))})},
			wantIn:   RecType{NewVariant(Field("x"))},
			wantOut:  RecType{NewVariant(Field("y"))},
			wantErrs: []string{ErrCodeMissingTag},
		},
		{
			name: "sync-merge",
			net: func() Node {
				return Sync(MustParsePattern("{a}"), MustParsePattern("{b,<t>}"))
			},
			wantIn:  RecType{NewVariant(Field("a")), NewVariant(Field("b"), Tag("t"))},
			wantOut: RecType{NewVariant(Field("a"), Field("b"), Tag("t"))},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := Compile(tc.net(), tc.opts...)
			var codes []string
			for _, te := range plan.TypeErrors() {
				codes = append(codes, te.Code)
			}
			if len(tc.wantErrs) == 0 {
				if err != nil {
					t.Fatalf("Compile: %v", err)
				}
			} else {
				if err == nil {
					t.Fatalf("Compile accepted; want codes %v", tc.wantErrs)
				}
				if len(codes) != len(tc.wantErrs) {
					t.Fatalf("codes = %v, want %v", codes, tc.wantErrs)
				}
				for i, c := range tc.wantErrs {
					if codes[i] != c {
						t.Fatalf("codes = %v, want %v", codes, tc.wantErrs)
					}
				}
			}
			checkType := func(what string, got, want RecType) {
				if len(got) != len(want) {
					t.Fatalf("%s = %v, want %v", what, got, want)
				}
				for i := range want {
					if !got[i].Equal(want[i]) {
						t.Fatalf("%s = %v, want %v", what, got, want)
					}
				}
			}
			checkType("in", plan.In(), tc.wantIn)
			checkType("out", plan.Out(), tc.wantOut)
		})
	}
}

func TestNodeStringRendering(t *testing.T) {
	n := Serial(
		NewBox("cO", MustParseSignature("(board) -> (board,opts)"), nopFn),
		Star(NewBox("sOL", MustParseSignature("(board,opts) -> (board,opts) | (board,<done>)"), nopFn),
			MustParsePattern("{<done>}")),
	)
	s := n.String()
	for _, want := range []string{"box cO", "box sOL", "**", "{<done>}", ".."} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	// Deterministic variants render with single symbols.
	d := SplitDet(incBox("x", 0), "k").String()
	if !strings.Contains(d, " ! ") || strings.Contains(d, "!!") {
		t.Fatalf("det split rendering: %q", d)
	}
	p := ParallelDet(incBox("x", 0), incBox("y", 0)).String()
	if !strings.Contains(p, " | ") {
		t.Fatalf("det parallel rendering: %q", p)
	}
}
