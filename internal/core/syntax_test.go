package core

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// evalTags evaluates e the way the runtime does — evalTagRec over a record —
// with the record's tags built from the map.
func evalTags(e TagExpr, tags map[string]int) (int, error) {
	r := NewRecord()
	for k, v := range tags {
		r.SetTag(k, v)
	}
	return evalTagRec(e, r)
}

func TestParseTagExprArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		tags map[string]int
		want int
	}{
		{"1+2*3", nil, 7},
		{"(1+2)*3", nil, 9},
		{"10-3-2", nil, 5}, // left assoc
		{"<k>%4", map[string]int{"k": 9}, 1},
		{"-<k>", map[string]int{"k": 5}, -5},
		{"!0", nil, 1},
		{"!7", nil, 0},
		{"10/3", nil, 3},
		{"<a>+<b>", map[string]int{"a": 2, "b": 40}, 42},
		{"<level> > 40", map[string]int{"level": 41}, 1},
		{"<level> > 40", map[string]int{"level": 40}, 0},
		{"<a> == <b>", map[string]int{"a": 1, "b": 1}, 1},
		{"<a> != <b>", map[string]int{"a": 1, "b": 1}, 0},
		{"<a> <= 3 && <a> >= 1", map[string]int{"a": 2}, 1},
		{"<a> < 1 || <a> > 3", map[string]int{"a": 2}, 0},
		{"1 < 2", nil, 1},
		{"2 <= 2", nil, 1},
	}
	for _, c := range cases {
		e, err := ParseTagExpr(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		got, err := evalTags(e, c.tags)
		if err != nil {
			t.Fatalf("%q: eval: %v", c.src, err)
		}
		if got != c.want {
			t.Fatalf("%q = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestTagExprShortCircuit(t *testing.T) {
	// <missing> on the right of && must not be evaluated when the left
	// side is false.
	e := MustParseTagExpr("0 && <missing>")
	if v, err := evalTags(e, nil); err != nil || v != 0 {
		t.Fatalf("short-circuit && broken: %v %v", v, err)
	}
	e = MustParseTagExpr("1 || <missing>")
	if v, err := evalTags(e, nil); err != nil || v != 1 {
		t.Fatalf("short-circuit || broken: %v %v", v, err)
	}
}

func TestTagExprErrors(t *testing.T) {
	if _, err := ParseTagExpr("1 +"); err == nil {
		t.Fatal("want parse error")
	}
	if _, err := ParseTagExpr("(1"); err == nil {
		t.Fatal("want parse error for unclosed paren")
	}
	if _, err := ParseTagExpr("1 2"); err == nil {
		t.Fatal("want trailing-input error")
	}
	if _, err := ParseTagExpr("&"); err == nil {
		t.Fatal("want lex error for single &")
	}
	if _, err := ParseTagExpr("a"); err == nil {
		t.Fatal("bare identifiers are not tag expressions")
	}
	for _, src := range []string{"1/0", "1%0", "<k>+1"} {
		e := MustParseTagExpr(src)
		if _, err := evalTags(e, map[string]int{}); err == nil {
			t.Fatalf("%q: want eval error", src)
		}
	}
	var se *SyntaxError
	_, err := ParseTagExpr("@")
	if se, _ = err.(*SyntaxError); se == nil || !strings.Contains(se.Error(), "@") {
		t.Fatalf("syntax error quality: %v", err)
	}
}

func TestTagExprTagRefs(t *testing.T) {
	e := MustParseTagExpr("<a>+<b>*<a>")
	refs := e.TagRefs(nil)
	if len(refs) != 3 {
		t.Fatalf("refs = %v", refs)
	}
}

func TestMustParseTagExprPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseTagExpr must panic on bad input")
		}
	}()
	MustParseTagExpr("+++")
}

// Property: String() of a parsed expression reparses to an expression with
// identical evaluation on a fixed environment.
func TestQuickTagExprRoundTrip(t *testing.T) {
	exprs := []string{
		"1+2*3", "<k>%4", "(<a>-<b>)*2", "<a> > 3 && <b> < 2",
		"-<k>+7", "!(<a>==<b>)", "<a>/2", "<a> >= <b> || <a> != 3",
	}
	env := map[string]int{"a": 5, "b": 2, "k": 11}
	f := func(pick uint8) bool {
		src := exprs[int(pick)%len(exprs)]
		e1 := MustParseTagExpr(src)
		e2 := MustParseTagExpr(e1.String())
		v1, err1 := evalTags(e1, env)
		v2, err2 := evalTags(e2, env)
		return err1 == nil && err2 == nil && v1 == v2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}

func TestParsePattern(t *testing.T) {
	p := MustParsePattern("{board, <done>}")
	if !p.Variant.Equal(v(Field("board"), Tag("done"))) {
		t.Fatalf("pattern variant = %v", p.Variant)
	}
	if p.Guard != nil {
		t.Fatal("no guard expected")
	}
	rec := NewRecord().SetField("board", 1).SetTag("done", 1).SetField("extra", 2)
	if !p.Matches(rec) {
		t.Fatal("superset record must match")
	}
	if p.Matches(NewRecord().SetField("board", 1)) {
		t.Fatal("missing tag must not match")
	}
}

func TestParsePatternGuard(t *testing.T) {
	// The paper's throttled exit: {<level>} | <level> > 40
	p := MustParsePattern("{<level>} | <level> > 40")
	if p.Guard == nil {
		t.Fatal("guard missing")
	}
	if !p.Matches(NewRecord().SetTag("level", 41)) {
		t.Fatal("level 41 must exit")
	}
	if p.Matches(NewRecord().SetTag("level", 40)) {
		t.Fatal("level 40 must not exit")
	}
	// "if" keyword form
	p2 := MustParsePattern("{<level>} if <level> > 40")
	if !p2.Matches(NewRecord().SetTag("level", 99)) {
		t.Fatal("if-guard form broken")
	}
}

func TestPatternEmpty(t *testing.T) {
	p := MustParsePattern("{}")
	if !p.Matches(NewRecord()) || !p.Matches(NewRecord().SetField("x", 1)) {
		t.Fatal("empty pattern must match everything")
	}
}

func TestPatternGuardEvalErrorMeansNoMatch(t *testing.T) {
	p := MustParsePattern("{} | <ghost> > 0")
	if p.Matches(NewRecord()) {
		t.Fatal("guard referencing absent tag must not match")
	}
}

func TestPatternParseErrors(t *testing.T) {
	for _, src := range []string{"{", "{a,}", "{a} |", "{a} extra", "a"} {
		if _, err := ParsePattern(src); err == nil {
			t.Fatalf("%q: want error", src)
		}
	}
}

func TestPatternString(t *testing.T) {
	p := MustParsePattern("{a,<t>} | <t> % 2 == 0")
	s := p.String()
	p2 := MustParsePattern(s)
	if !p2.Variant.Equal(p.Variant) || p2.Guard == nil {
		t.Fatalf("pattern round-trip broke: %q", s)
	}
}

func TestParseSignature(t *testing.T) {
	// The paper's example: box foo (a,<b>) -> (c) | (c,d,<e>)
	s := MustParseSignature("(a,<b>) -> (c) | (c,d,<e>)")
	if len(s.In) != 2 || s.In[0] != Field("a") || s.In[1] != Tag("b") {
		t.Fatalf("In = %v", s.In)
	}
	if len(s.Out) != 2 || len(s.Out[0]) != 1 || len(s.Out[1]) != 3 {
		t.Fatalf("Out = %v", s.Out)
	}
	if s.Out[1][2] != Tag("e") {
		t.Fatalf("Out[1] = %v", s.Out[1])
	}
	// Type signature drops ordering: {a,<b>} -> {c} | {c,d,<e>}
	if !s.InType()[0].Equal(v(Field("a"), Tag("b"))) {
		t.Fatal("InType broken")
	}
	if len(s.OutType()) != 2 {
		t.Fatal("OutType broken")
	}
	if got := s.String(); got != "(a,<b>) -> (c) | (c,d,<e>)" {
		t.Fatalf("String = %q", got)
	}
}

func TestParseSignatureEmptyTuples(t *testing.T) {
	s := MustParseSignature("() -> (<k>)")
	if len(s.In) != 0 || len(s.Out) != 1 {
		t.Fatalf("sig = %v", s)
	}
}

func TestParseSignatureErrors(t *testing.T) {
	for _, src := range []string{
		"(a) (b)", "(a) ->", "(a -> (b)", "(a,a) -> (b)", "(a) -> (b,b)", "(a) -> (b) trailing",
	} {
		if _, err := ParseSignature(src); err == nil {
			t.Fatalf("%q: want error", src)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"pattern":   func() { MustParsePattern("{") },
		"signature": func() { MustParseSignature("nope") },
		"filter":    func() { MustParseFilter("[") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: want panic", name)
				}
			}()
			f()
		}()
	}
}

// Regression: micro-form syntax errors in multi-line sources report
// line:column instead of a bare byte offset (useless past the first line),
// quoting only the offending line.
func TestSyntaxErrorLineCol(t *testing.T) {
	src := "[{a, b, <c>} ->\n  {a, z=a, <t>};\n  {b, a=q, <c>=<c>+1}]"
	_, err := ParseFilter(src)
	if err == nil {
		t.Fatal("ParseFilter accepted a bad source")
	}
	var serr *SyntaxError
	if !errors.As(err, &serr) {
		t.Fatalf("err %T is not *SyntaxError", err)
	}
	line, col := serr.LineCol()
	if line != 3 || col != 10 {
		t.Fatalf("LineCol = %d:%d, want 3:10 (err: %v)", line, col, err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "3:10") || strings.Contains(msg, "\n") {
		t.Fatalf("rendering = %q, want line:col and no embedded newlines", msg)
	}
	// Single-line sources keep the compact offset form.
	_, err = ParseFilter("{a} -> {q}")
	if err == nil || !strings.Contains(err.Error(), "at 9 in") {
		t.Fatalf("single-line rendering changed: %v", err)
	}
}
