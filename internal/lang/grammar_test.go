package lang

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/core"
)

// grammarForms lists the productions the Go API's strings and .snet programs
// share.  alone parses a text as the Go API does; prefix and suffix embed it
// in a program at a spot of the program grammar that takes the same
// production, and embedded returns what the program parsed there.
var grammarForms = map[string]struct {
	prefix, suffix string
	alone          func(string) (fmt.Stringer, error)
	embedded       func(*Program) fmt.Stringer
}{
	"signature": {"box f ", ";",
		func(s string) (fmt.Stringer, error) { return core.ParseSignature(s) },
		func(p *Program) fmt.Stringer { return p.Boxes[0].Sig }},
	"pattern": {"net n connect x ** (", ");",
		func(s string) (fmt.Stringer, error) { return core.ParsePattern(s) },
		func(p *Program) fmt.Stringer { return p.Nets[0].Expr.(*StarExpr).Exit }},
	"filter": {"net n connect ", ";",
		func(s string) (fmt.Stringer, error) { return core.ParseFilter(s) },
		func(p *Program) fmt.Stringer { return p.Nets[0].Expr.(*FilterExpr).Spec }},
	"tagexpr": {"net n connect [{<k>} -> {<k>=", "}];",
		func(s string) (fmt.Stringer, error) { return core.ParseTagExpr(s) },
		func(p *Program) fmt.Stringer { return p.Nets[0].Expr.(*FilterExpr).Spec.Outputs[0][0].Expr }},
}

// TestOneGrammar holds the Go API's string forms and .snet programs to one
// grammar: every text is parsed alone and embedded, and the two must agree —
// both accept and render the same, or both reject with the same message at
// the same place (shifted by the embedding prefix).  Where the text simply
// stops short, only the place and the expectation are compared: alone the
// parser finds "end of input" there, embedded the program's next token; and
// where text is left over, alone it is "trailing input", embedded whatever
// the surrounding production wanted instead.
func TestOneGrammar(t *testing.T) {
	cases := []struct {
		form, text string
		ok         bool
		at         int    // rejected: byte offset of the error in text, -1 any
		msg        string // rejected: substring of the message, "" any
	}{
		// The paper's own examples (§4).
		{"signature", "(a,<b>) -> (c) | (c,d,<e>)", true, 0, ""},
		{"signature", "() -> (<k>)", true, 0, ""},
		{"pattern", "{board, <done>}", true, 0, ""},
		{"pattern", "{<level>} | <level> > 40", true, 0, ""},
		{"pattern", "{<level>} if <level> > 40", true, 0, ""},
		{"filter", "[{a,b,<c>} -> {a,z=a,<t>}; {b,a=b,<c>=<c>+1}]", true, 0, ""},
		{"filter", "[{x} -> ]", true, 0, ""},
		{"tagexpr", "<k>%4+1", true, 0, ""},
		{"tagexpr", "<k> <= 3 && <k> >= 1 || !(<k> == -<k>)", true, 0, ""},

		// Where the two parsers had drifted apart.
		{"signature", "(café) -> (b)", true, 0, ""},                                    // (a) UTF-8 identifiers
		{"pattern", "{<naïve>} | <naïve> > 1 x", false, 26, "trailing input"},          // ... and columns in characters
		{"signature", "(a,a) -> (b)", false, 3, "duplicate label a"},                   // (b) at the second a
		{"signature", "(a) -> (b,b)", false, 10, "duplicate label b"},                  //
		{"signature", "(<a>,a) -> (a,<a>)", true, 0, ""},                               // a field and a tag are two labels
		{"filter", "[{<k>} -> {<k>=!!<k>}]", true, 0, ""},                              // (c) !! is two negations
		{"tagexpr", "!!<k>", true, 0, ""},                                              //
		{"tagexpr", "!!!<k>", true, 0, ""},                                             //
		{"filter", "[{<k>} -> {<k>=99999999999999999999}]", false, 15, "out of range"}, // (d) no silent overflow
		{"pattern", "{<l>} | <l> > 99999999999999999999", false, 14, "integer 99999999999999999999 out of range"},
		{"tagexpr", "9223372036854775807", true, 0, ""},
		{"tagexpr", "9223372036854775808", false, 0, "out of range"},
		{"filter", "[{a} /* why */ -> {a} // and a tail\n]", true, 0, ""}, // comments are white space everywhere
		{"tagexpr", "<k> /* times */ * 2", true, 0, ""},
		{"tagexpr", "<k> /* never closed", false, 4, "unterminated block comment"},

		// TestPatternParseErrors.
		{"pattern", "{", false, 1, "expected field or tag label"},
		{"pattern", "{a,}", false, 3, "expected field or tag label"},
		{"pattern", "{a} |", false, 5, "expected integer, tag or '('"},
		{"pattern", "{a} extra", false, 4, "trailing input"},
		{"pattern", "a", false, 0, "expected '{'"},
		// TestParseSignatureErrors.
		{"signature", "(a) (b)", false, 4, "expected '->'"},
		{"signature", "(a) ->", false, 6, "expected '('"},
		{"signature", "(a -> (b)", false, 3, "expected ')'"},
		{"signature", "(a) -> (b) trailing", false, 11, "trailing input"},
		// TestTagExprErrors.
		{"tagexpr", "1 +", false, 3, "expected integer, tag or '('"},
		{"tagexpr", "(1", false, 2, "expected ')'"},
		{"tagexpr", "1 2", false, 2, "trailing input"},
		{"tagexpr", "&", false, 0, `unexpected character "&"`},
		{"tagexpr", "a", false, 0, "expected integer, tag or '('"},
		{"tagexpr", "@", false, 0, `unexpected character "@"`},
		// The rows of TestParseErrors that fail inside one of these forms.
		{"signature", "(a) -> ", false, 7, "expected '('"},
		{"pattern", "", false, 0, "expected '{'"},
		{"filter", "[ {a} -> {b} ]", false, 11, `field "b" not in filter pattern`},
		{"filter", "[{a} -> {<t>=<u>}]", false, 16, "tag <u> used in expression but not in filter pattern"},
		{"filter", "[{a} -> {a=}]", false, 11, "expected identifier"},
		{"filter", "[{a} -> {a} {a}]", false, 12, "expected ']'"},
	}
	for _, c := range cases {
		form := grammarForms[c.form]
		alone, aloneErr := form.alone(c.text)
		prog, progErr := Parse(form.prefix + c.text + form.suffix)
		if (aloneErr == nil) != c.ok || (progErr == nil) != c.ok {
			t.Errorf("%s %q: want accepted=%v; alone: %v; in a program: %v", c.form, c.text, c.ok, aloneErr, progErr)
			continue
		}
		if c.ok {
			if got := form.embedded(prog).String(); got != alone.String() {
				t.Errorf("%s %q: alone renders %q, in a program %q", c.form, c.text, alone, got)
			}
			continue
		}
		var se *core.SyntaxError
		var pe *Error
		if !errors.As(aloneErr, &se) || !errors.As(progErr, &pe) {
			t.Errorf("%s %q: error types %T, %T", c.form, c.text, aloneErr, progErr)
			continue
		}
		if (c.at >= 0 && se.Pos != c.at) || !strings.Contains(se.Msg, c.msg) {
			t.Errorf("%s %q: alone: %q at %d, want %q at %d", c.form, c.text, se.Msg, se.Pos, c.msg, c.at)
		}
		line, col := se.LineCol()
		if line == 1 {
			col += utf8.RuneCountInString(form.prefix)
		}
		if want := (Pos{line, col}); pe.Pos != want {
			t.Errorf("%s %q: alone at %d, so %v in a program, got %v (%s)", c.form, c.text, se.Pos, want, pe.Pos, pe.Msg)
		}
		want, got := se.Msg, pe.Msg
		if se.Pos == len(c.text) {
			want, _, _ = strings.Cut(want, ", found ")
			got, _, _ = strings.Cut(got, ", found ")
		}
		if want != got && want != "trailing input" {
			t.Errorf("%s %q: alone %q, in a program %q", c.form, c.text, want, got)
		}
	}
}
