package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Tag expressions against the tree evaluator (evalTagRec, oracle_test.go):
// seeded random expressions over every operator, random tag values and shapes
// with and without the tags an expression names — as the right-hand side of a
// filter's tag assignment and as a pattern's guard, on the program alone and
// through running networks.

// tagPool are the tags the random expressions name; a record carries a random
// subset of them.
var tagPool = []string{"a", "b", "c", "d"}

var tagBinOps = []string{"||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"}

// randTagExprSrc renders a random expression of at most the given depth.
// Parentheses are left out now and then, so precedence and associativity
// decide the tree (TestTagExprParsePinned holds those).
func randTagExprSrc(rng *rand.Rand, depth int) string {
	if depth == 0 || rng.Intn(5) == 0 {
		if rng.Intn(2) == 0 {
			return "<" + tagPool[rng.Intn(len(tagPool))] + ">"
		}
		consts := []int{0, 0, 1, 1, 2, 3, 7, 10, -1, -3, 1000003}
		return strconv.Itoa(consts[rng.Intn(len(consts))])
	}
	if rng.Intn(5) == 0 {
		chain := []string{"-", "!", "!!", "!!!", "-!", "!-", "- -", "!!-!"}[rng.Intn(8)]
		return chain + "(" + randTagExprSrc(rng, depth-1) + ")"
	}
	x, y := randTagExprSrc(rng, depth-1), randTagExprSrc(rng, depth-1)
	s := x + " " + tagBinOps[rng.Intn(len(tagBinOps))] + " " + y
	if rng.Intn(4) != 0 {
		s = "(" + s + ")"
	}
	return s
}

// randTagRecord is a record with a random subset of the pool's tags, random
// values (zero among them) and a few labels the expressions never name, so
// that a tag's slot differs from shape to shape.
func randTagRecord(rng *rand.Rand) *Record {
	vals := []int{0, 0, 1, 1, 2, 3, 5, 7, -1, -4, 10, 1000, 1 << 40}
	r := NewRecord()
	for _, t := range tagPool {
		if rng.Intn(4) != 0 {
			r.SetTag(t, vals[rng.Intn(len(vals))])
		}
	}
	for _, t := range []string{"Z", "aa", "bb", "z"} {
		if rng.Intn(3) == 0 {
			r.SetTag(t, rng.Intn(9))
		}
	}
	if rng.Intn(2) == 0 {
		r.SetField("f", "x")
	}
	return r
}

// treeGuard is Pattern.Matches by the book: the variant's labels are there and
// the guard evaluates, by the tree, to nonzero; a guard that fails to evaluate
// does not match.
func treeGuard(p Pattern, r *Record) bool {
	if !p.Variant.SubsetOf(r.Labels()) {
		return false
	}
	if p.Guard == nil {
		return true
	}
	v, err := evalTagRec(p.Guard, r)
	return err == nil && v != 0
}

// assignSpec is the filter {} -> {<r>=e}: built, not parsed, so e may name
// tags its pattern does not bind — the way to an absent tag.
func assignSpec(e TagExpr) *FilterSpec {
	return &FilterSpec{Pattern: Pattern{Variant: Variant{}},
		Outputs: [][]FilterItem{{{Name: "r", IsTag: true, Expr: e}}}}
}

// checkTagExpr holds one expression over one record to the tree evaluator,
// value and exact error string: as a filter assignment and as a guard.
func checkTagExpr(t *testing.T, src string, e TagExpr, rec *Record) {
	t.Helper()
	spec := assignSpec(e)
	want, wantErr := spec.Apply(rec)
	got, gotErr := compileFilterProg(spec, rec.shape).apply(nil, rec, nil)
	switch {
	case wantErr != nil || gotErr != nil:
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s over %s: errors diverge:\n tree    %v\n program %v", src, rec, wantErr, gotErr)
		}
	case renderStream(got) != renderStream(want):
		t.Fatalf("%s over %s:\n tree    %s program %s", src, rec, renderStream(want), renderStream(got))
	}
	for _, r := range got {
		releaseRecord(r)
	}
	for _, variant := range []Variant{{}, NewVariant(Tag("a")), NewVariant(Tag("b"), Field("f"))} {
		p := Pattern{Variant: variant, Guard: e}
		if got, want := p.Matches(rec), treeGuard(p, rec); got != want {
			t.Fatalf("%s | %s over %s: Matches = %v, by the tree %v", variant, src, rec, got, want)
		}
	}
}

// TestTagExprWrittenDown are the cases with their answers written down: both
// evaluators must give exactly these.
func TestTagExprWrittenDown(t *testing.T) {
	a := func(v int) *Record { return NewRecord().SetTag("a", v).SetTag("z", 9) }
	cases := []struct {
		src  string
		rec  *Record
		want int
		err  string
	}{
		{"<a> != 0 && 10 / <a>", a(0), 0, ""},
		{"<a> != 0 && 10 / <a>", a(5), 1, ""},
		{"<a> != 0 && 10 / <a>", a(20), 0, ""},
		{"10 / <a> || 1", a(0), 0, `core: cannot evaluate "(10 / <a>)": division by zero`},
		{"10 / <a> || 1", a(3), 1, ""},
		{"<a> == 0 || 10 % <a>", a(0), 1, ""},
		{"10 % <a>", a(0), 0, `core: cannot evaluate "(10 % <a>)": modulo by zero`},
		{"<a> / (2-2)", a(1), 0, `core: cannot evaluate "(<a> / (2 - 2))": division by zero`},
		{"7 % 0", a(1), 0, `core: cannot evaluate "(7 % 0)": modulo by zero`},
		{"0 && 7 / 0", a(1), 0, ""},
		{"1 || 7 % 0", a(1), 1, ""},
		{"<q> + 1", a(1), 0, `core: cannot evaluate "<q>": tag not present in record`},
		{"<q> + 1/0", a(1), 0, `core: cannot evaluate "<q>": tag not present in record`},
		{"1/0 + <q>", a(1), 0, `core: cannot evaluate "(1 / 0)": division by zero`},
		{"0 && <q>", a(1), 0, ""},
		{"1 || <q>", a(1), 1, ""},
		{"<a> && <q>", a(0), 0, ""},
		{"<a> && <q>", a(2), 0, `core: cannot evaluate "<q>": tag not present in record`},
		{"!!<a>", a(7), 1, ""},
		{"!!!<a>", a(7), 0, ""},
		{"-!-<a>", a(0), -1, ""},
		{"- -3 * <a>", a(2), 6, ""},
		{"(<a>*3+4)%1000003", a(999999), 999995, ""},
		{"<a> - 1 - 1", a(5), 3, ""},
		{"2 + 3 * <a> == 17 && <a> >= 5 || 0", a(5), 1, ""},
		{"<z> <= <a>", a(9), 1, ""},
	}
	for _, c := range cases {
		e := MustParseTagExpr(c.src)
		checkTagExpr(t, c.src, e, c.rec)
		got, err := compileFilterProg(assignSpec(e), c.rec.shape).apply(nil, c.rec, nil)
		if c.err != "" {
			if err == nil || !strings.HasSuffix(err.Error(), c.err) {
				t.Errorf("%s over %s: error %v, want … %s", c.src, c.rec, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s over %s: %v, want %d", c.src, c.rec, err, c.want)
			continue
		}
		if v := tagOf(t, got[0], "r"); v != c.want {
			t.Errorf("%s over %s = %d, want %d", c.src, c.rec, v, c.want)
		}
		releaseRecord(got[0])
	}
}

// testRandomTagExprs is TestFilterProgramEquivalence's random half: 2 400
// expressions of depth up to 6, each over four records of random shape.
func testRandomTagExprs(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	live := PoolStats().Live()
	for trial := 0; trial < 2400; trial++ {
		src := randTagExprSrc(rng, 1+trial%6)
		e, err := ParseTagExpr(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for k := 0; k < 4; k++ {
			checkTagExpr(t, src, e, randTagRecord(rng))
		}
	}
	if d := PoolStats().Live() - live; d != 0 {
		t.Fatalf("%d arena records live after the comparison", d)
	}
}

// TestTagExprParsePinned pins what the parser makes of expressions written
// without parentheses — precedence, associativity, the unary chains — as a
// digest of their fully parenthesized renderings, taken before the five
// precedence functions became one table.
func TestTagExprParsePinned(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	h := fnv.New64a()
	for i := 0; i < 3000; i++ {
		n := 2 + rng.Intn(6)
		var sb strings.Builder
		for k := 0; k < n; k++ {
			if k > 0 {
				sb.WriteString(" " + tagBinOps[rng.Intn(len(tagBinOps))] + " ")
			}
			sb.WriteString([]string{"", "", "", "-", "!", "!!", "-!"}[rng.Intn(7)])
			sb.WriteString(randTagExprSrc(rng, rng.Intn(2)))
		}
		e, err := ParseTagExpr(sb.String())
		if err != nil {
			t.Fatalf("%s: %v", sb.String(), err)
		}
		fmt.Fprintln(h, e)
	}
	if got, want := h.Sum64(), uint64(tagExprParseDigest); got != want {
		t.Fatalf("digest of 3000 parsed expressions %#x, want %#x: the parser reads some expression differently", got, want)
	}
}

const tagExprParseDigest = 0x622797abe45597b3

// testTagExprsThroughNet is TestBoxProgramMatchesByName's tag-expression
// half: random expressions where a running network evaluates them — a
// filter's assignment, the guard of a filter that is a parallel branch (the
// route table), a synchrocell pattern's guard, a star's exit — on both plans,
// against records built label by label from what the tree evaluator says.
func testTagExprsThroughNet(t *testing.T, m execMode) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 160; trial++ {
		depth := 1 + trial%5
		assign := MustParseTagExpr(randTagExprSrc(rng, depth))
		guard := MustParseTagExpr(randTagExprSrc(rng, depth))
		cell := MustParseTagExpr(randTagExprSrc(rng, depth))
		exit := MustParseTagExpr("<n> >= 3 || " + randTagExprSrc(rng, depth))

		set := NewFilter(assignSpec(assign))
		hit := NewFilter(&FilterSpec{Pattern: Pattern{Variant: Variant{}, Guard: guard},
			Outputs: [][]FilterItem{{{Name: "hit", IsTag: true, Expr: intLit(1)}}}})
		syncName := fmt.Sprintf("tp%d_%v", trial, m.fuse)
		exitPat := Pattern{Variant: NewVariant(Tag("n")), Guard: exit}
		cellPat := Pattern{Variant: NewVariant(Tag("hit")), Guard: cell}
		net := Serial(
			Observe("", nil),
			set,
			ParallelDet(hit, MustFilter("{} -> {<hit>}")),
			NamedSync(syncName, cellPat, MustParsePattern("{never}")),
			StarDet(MustFilter("{<n>} -> {<n>=<n>+1}"), exitPat),
		)

		var protos []*Record
		for k := 0; k < 6; k++ {
			protos = append(protos, randTagRecord(rng).SetTag("n", rng.Intn(3)))
		}
		var want, wantErrs []string
		stored := false
		for _, p := range protos {
			r := p.Copy()
			v, err := evalTagRec(assign, r)
			if err != nil {
				wantErrs = append(wantErrs, fmt.Sprintf("core: filter %s: filter %s: %v", set.name(), set, err))
				continue
			}
			r.SetTag("r", v)
			r.SetTag("hit", btoi(treeGuard(Pattern{Guard: guard}, r)))
			if !stored && treeGuard(cellPat, r) {
				stored = true
				continue
			}
			for !treeGuard(exitPat, r) {
				r.SetTag("n", r.MustTag("n")+1)
			}
			want = append(want, r.String())
		}

		inputs := make([]*Record, len(protos))
		for i, p := range protos {
			inputs[i] = p.Copy()
		}
		var errs []string
		live := PoolStats().Live()
		out, stats := m.runNet(t, net, inputs, WithErrorHandler(func(e error) { errs = append(errs, e.Error()) }),
			WithMaxStarDepth(8)) // an exit that never matches is a failure, not a hang
		if got := render(out); !slices.Equal(got, want) {
			t.Fatalf("assign %s, guard %s, cell %s, exit %s:\n got %q\nwant %q", assign, guard, cell, exit, got, want)
		}
		if !slices.Equal(errs, wantErrs) {
			t.Fatalf("assign %s: errors\n got %q\nwant %q", assign, errs, wantErrs)
		}
		if s := stats.Counter("sync." + syncName + ".starved"); s != int64(btoi(stored)) {
			t.Fatalf("cell %s: starved = %d, want %d", cell, s, btoi(stored))
		}
		if d := PoolStats().Live() - live; d != 0 {
			t.Fatalf("assign %s, guard %s: %d arena records live after the run", assign, guard, d)
		}
	}
}

// TestTagExprGuardSharedAcrossRuns: one guarded parallel, four runs at once —
// the per-shape entries that carry a guard are the node's, shared by every run.
func TestTagExprGuardSharedAcrossRuns(t *testing.T) {
	net := ParallelDet(
		MustFilter("{<a>} | <a> % 3 == 1 && 12 / <a> > 1 -> {<a>, <hit>=<a>*2}"),
		MustFilter("{<a>} -> {<a>, <hit>=0-1}"),
	)
	plan := fused.Compile(net)
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			var inputs []*Record
			for i := 0; i < 200; i++ {
				r := NewRecord().SetTag("a", i%9)
				if i%2 == 0 {
					r.SetTag("pad", i)
				}
				inputs = append(inputs, r)
			}
			out, _, err := plan.RunAll(context.Background(), inputs)
			for i, r := range out {
				a := i % 9
				want := -1
				if a%3 == 1 && 12/a > 1 {
					want = a * 2
				}
				if v, _ := r.Tag("hit"); err == nil && v != want {
					err = fmt.Errorf("record %d: <a>=%d <hit>=%d, want %d", i, a, v, want)
				}
			}
			if err == nil && len(out) != 200 {
				err = fmt.Errorf("%d records out, want 200", len(out))
			}
			done <- err
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
