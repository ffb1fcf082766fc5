package lang

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// fuzzSeeds is the seed corpus for FuzzParse: the textual programs shipped
// with the repository (examples/dsl, the snetd testdata networks), plus
// grammar-corner snippets — filters, synchrocells, deterministic variants,
// nested nets — so the fuzzer starts from every production of the grammar.
var fuzzSeeds = []string{
	// cmd/snetd/testdata/countdown.snet
	`box inc (<n>) -> (<n>);
box dec (<n>) -> (<n>) | (<n>, <done>);
net countdown connect inc .. (dec ** {<done>});`,
	// examples/dsl: the paper's Fig. 2 network
	`box computeOpts (board) -> (board, opts);
box solveOneLevel (board, opts) -> (board, opts, <k>) | (board, <done>);

net fig2 connect
    computeOpts .. [{} -> {<k>=1}] .. ((solveOneLevel !! <k>) ** {<done>});`,
	// filters with tag arithmetic, guards, duplication
	`net throttle connect [{<k>} -> {<k>=<k>%4}];`,
	`net dup connect [{a} -> {a}; {a,<i>=0}];`,
	// synchrocell, deterministic variants, nested nets
	`box a (x) -> (y);
box b (y) -> (z);
net outer {
    net inner connect a | b;
} connect inner * {<done>} .. [| {p}, {q} |] ! <t>;`,
	// comments, signatures with many variants
	`// comment
box multi (a, <t>) -> (b) | (c, <d>) | ();
net m connect multi || multi;`,
	// degenerate inputs
	``,
	`;`,
	`net x connect`,
	`box (`,
	"net u connect \x00\xff",
	// where the Go API's strings and .snet text once parsed differently
	// (TestOneGrammar): a Unicode label, !! in operand position, an
	// overflowing literal, a label twice in one tuple, a comment in a guard
	`box f (café) -> (<naïve>);`,
	`{<k>} -> {<k>=!!<k>}`,
	`[{<k>} -> {<k>=99999999999999999999}]`,
	`box f (a,a) -> (b);`,
	`net g connect x ** ({<l>} | <l> /* level */ > 40 // deep enough
	);`,
}

// FuzzParse asserts the parser is total: any byte string either parses or
// returns an error — it must never panic, hang, or index out of range — and
// that there is one grammar: a text core.ParseFilter accepts is accepted as a
// filter expression of a program, and renders the same.
// Run with: go test -fuzz=FuzzParse ./internal/lang
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err == nil && prog == nil {
			t.Fatal("Parse returned nil program without error")
		}
		if err != nil && !strings.Contains(err.Error(), ":") {
			// Errors must carry a source position ("line:col: ...").
			t.Fatalf("parse error without position: %v", err)
		}
		spec, err := core.ParseFilter(src)
		if err != nil {
			return
		}
		// ParseFilter takes the brackets or leaves them; a program writes
		// them.  The newline keeps a trailing line comment off the suffix.
		text := "net n connect [ " + src + "\n];"
		if p, _ := core.NewParser(src); p.At(core.TokLBrack) {
			text = "net n connect " + src + "\n;"
		}
		prog, err = Parse(text)
		if err != nil {
			t.Fatalf("core.ParseFilter accepts %q, a program does not: %v", src, err)
		}
		if got := prog.Nets[0].Expr.String(); got != spec.String() {
			t.Fatalf("filter %q renders %q alone, %q in a program", src, spec, got)
		}
	})
}

// The seed corpus itself must stay green as the grammar evolves: everything
// that should parse does, and the degenerate seeds fail with positioned
// errors rather than panics.
func TestFuzzSeedsParseOrError(t *testing.T) {
	for i, seed := range fuzzSeeds {
		prog, err := Parse(seed)
		if err == nil && prog == nil {
			t.Errorf("seed %d: nil program without error", i)
		}
		if err != nil && !strings.Contains(err.Error(), ":") {
			t.Errorf("seed %d: error without position: %v", i, err)
		}
	}
}
