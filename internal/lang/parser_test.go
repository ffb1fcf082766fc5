package lang

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// lexAll drains the one lexer (core.NewParser) into its tokens, TokEOF last.
func lexAll(src string) ([]core.Token, error) {
	p, err := core.NewParser(src)
	if err != nil {
		return nil, err
	}
	var toks []core.Token
	for {
		toks = append(toks, p.Take())
		if toks[len(toks)-1].Kind == core.TokEOF {
			return toks, nil
		}
	}
}

func TestLexerTokens(t *testing.T) {
	toks, err := lexAll("box net .. | || * ** ! !! <k> [| |] [ ] { } ( ) -> = == != <= >= && % 42 // c\n/* b */ x")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []core.TokKind{}
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	want := []core.TokKind{core.TokIdent, core.TokIdent, core.TokDots, core.TokPipe, core.TokOrOr,
		core.TokStar, core.TokStarStar, core.TokNot, core.TokNotNot, core.TokTagName,
		core.TokSyncOpen, core.TokSyncClose, core.TokLBrack, core.TokRBrack, core.TokLBrace,
		core.TokRBrace, core.TokLParen, core.TokRParen, core.TokArrow, core.TokAssign, core.TokEq,
		core.TokNeq, core.TokLe, core.TokGe, core.TokAndAnd, core.TokPercent, core.TokInt,
		core.TokIdent, core.TokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexerTagVsComparison(t *testing.T) {
	toks, err := lexAll("<level> > 40 && <k> <= 3")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != core.TokTagName || toks[0].Text != "level" {
		t.Fatalf("tok0 = %v", toks[0])
	}
	if toks[1].Kind != core.TokGt || toks[4].Kind != core.TokTagName || toks[5].Kind != core.TokLe {
		t.Fatalf("toks = %v", toks)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"@", "&", ".", "/* unterminated"} {
		if _, err := lexAll(src); err == nil {
			t.Fatalf("%q: want lex error", src)
		}
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := lexAll("box\n  foo // é\n/* é\né */ é <é> x")
	if err != nil {
		t.Fatal(err)
	}
	var got []Pos
	for _, tk := range toks {
		got = append(got, posOf(tk))
	}
	// Columns count characters, not bytes, in code and in comments alike.
	want := []Pos{{1, 1}, {2, 3}, {4, 6}, {4, 8}, {4, 12}, {4, 13}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("positions = %v, want %v", got, want)
	}
}

func TestParseBoxDecl(t *testing.T) {
	prog, err := Parse("box foo (a,<b>) -> (c) | (c,d,<e>);")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Boxes) != 1 {
		t.Fatalf("boxes = %d", len(prog.Boxes))
	}
	bd := prog.Boxes[0]
	if bd.Name != "foo" || len(bd.Sig.In) != 2 || len(bd.Sig.Out) != 2 {
		t.Fatalf("decl = %+v", bd)
	}
}

func TestParseNetFig1(t *testing.T) {
	src := `
		box computeOpts (board) -> (board, opts);
		box solveOneLevel (board, opts) -> (board, opts) | (board, <done>);
		net fig1 connect computeOpts .. (solveOneLevel ** {<done>});
	`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Nets) != 1 || prog.Nets[0].Name != "fig1" {
		t.Fatalf("nets = %+v", prog.Nets)
	}
	s := prog.Nets[0].Expr.String()
	if !strings.Contains(s, "**") || !strings.Contains(s, "{<done>}") {
		t.Fatalf("expr = %q", s)
	}
}

func TestParsePrecedenceSerialOverParallel(t *testing.T) {
	prog := MustParse(`
		box a (x) -> (x); box b (x) -> (x); box c (x) -> (x); box d (x) -> (x);
		net n connect a .. b || c .. d;
	`)
	par, ok := prog.Nets[0].Expr.(*ParExpr)
	if !ok {
		t.Fatalf("top is %T, want ParExpr", prog.Nets[0].Expr)
	}
	if _, ok := par.A.(*SerialExpr); !ok {
		t.Fatal("left of || must be the serial chain")
	}
}

func TestParsePostfixBinding(t *testing.T) {
	prog := MustParse(`
		box a (x) -> (x);
		net n connect a ** {<done>} !! <k>;
	`)
	// postfix chains left to right: (a ** p) !! <k>
	sp, ok := prog.Nets[0].Expr.(*SplitExpr)
	if !ok {
		t.Fatalf("top = %T", prog.Nets[0].Expr)
	}
	if _, ok := sp.A.(*StarExpr); !ok {
		t.Fatal("star must bind before split")
	}
	if sp.Det {
		t.Fatal("!! is the nondeterministic split")
	}
}

func TestParseDetVariants(t *testing.T) {
	prog := MustParse(`
		box a (x) -> (x); box b (x) -> (x);
		net n1 connect a * {<done>};
		net n2 connect a ! <k>;
		net n3 connect a | b;
	`)
	if !prog.Nets[0].Expr.(*StarExpr).Det {
		t.Fatal("* must be deterministic")
	}
	if !prog.Nets[1].Expr.(*SplitExpr).Det {
		t.Fatal("! must be deterministic")
	}
	if !prog.Nets[2].Expr.(*ParExpr).Det {
		t.Fatal("| must be deterministic")
	}
}

func TestParseGuardedStarOperand(t *testing.T) {
	prog := MustParse(`
		box a (x) -> (x);
		net n connect a ** ({<level>} | <level> > 40);
	`)
	star := prog.Nets[0].Expr.(*StarExpr)
	if star.Exit.Guard == nil {
		t.Fatal("guard lost")
	}
	if !star.Exit.Matches(core.NewRecord().SetTag("level", 41)) {
		t.Fatal("guard semantics wrong")
	}
	if star.Exit.Matches(core.NewRecord().SetTag("level", 40)) {
		t.Fatal("guard semantics wrong at boundary")
	}
}

func TestParseFilterExpr(t *testing.T) {
	prog := MustParse(`
		net n connect [{a,b,<c>} -> {a,z=a,<t>}; {b,a=b,<c>=<c>+1}];
	`)
	f := prog.Nets[0].Expr.(*FilterExpr)
	if len(f.Spec.Outputs) != 2 {
		t.Fatalf("outputs = %d", len(f.Spec.Outputs))
	}
}

func TestParseSyncExpr(t *testing.T) {
	prog := MustParse(`net n connect [| {a}, {b,<t>} |];`)
	sy := prog.Nets[0].Expr.(*SyncExpr)
	if len(sy.Patterns) != 2 {
		t.Fatalf("patterns = %d", len(sy.Patterns))
	}
}

func TestParseNetBodyScoping(t *testing.T) {
	prog := MustParse(`
		box outer (x) -> (x);
		net n {
			box inner (x) -> (x);
		} connect outer .. inner;
	`)
	if prog.Nets[0].Body == nil || len(prog.Nets[0].Body.Boxes) != 1 {
		t.Fatal("body not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"box",                                    // missing name
		"box f (a) -> ",                          // missing output
		"net n connect ;",                        // empty expr
		"net n foo;",                             // missing connect
		"net n connect a ** ;",                   // missing pattern
		"net n connect a !! k;",                  // tag must be <k>
		"xyz",                                    // not a declaration
		"net n connect (a;",                      // unclosed paren
		"net n connect [ {a} -> {b} ];",          // filter item not in pattern
		"box f (a) -> (b) extra net n connect f", // garbage
		"net n connect [| {a} |];",               // sync needs two patterns
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Fatalf("%q: want parse error", src)
		} else if _, ok := err.(*Error); !ok {
			t.Fatalf("%q: error type %T", src, err)
		}
	}
}

func TestProgramStringRoundTrip(t *testing.T) {
	src := `
		box computeOpts (board) -> (board, opts);
		box solveOneLevel (board, opts) -> (board, opts, <k>) | (board, <done>);
		net fig2 connect computeOpts .. [{} -> {<k>=1}] .. ((solveOneLevel !! <k>) ** {<done>});
	`
	p1 := MustParse(src)
	p2, err := Parse(p1.String())
	if err != nil {
		t.Fatalf("round-trip parse failed: %v\nrendered:\n%s", err, p1.String())
	}
	if p1.String() != p2.String() {
		t.Fatalf("round-trip not stable:\n%s\nvs\n%s", p1.String(), p2.String())
	}
}
