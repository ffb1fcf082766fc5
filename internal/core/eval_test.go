package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The reference evaluator: the semantics of §4 run on one goroutine over a
// compiled plan's tree (Plan.Graph), one record at a time, depth first.  It
// is the oracle the runtime's outputs are held to.  It shares with the runtime
// the tree, the interpreted filter and tag-expression oracles (FilterSpec.Apply
// and evalTagRec, oracle_test.go) and, to apply a box, a plan of that box
// alone fed the record cut down to the box's input labels; it starts no
// goroutine of its own and uses no arena, stream or segment.  The rules:
//
//   - a parallel routes a record to the branch whose input type it matches
//     best (the largest matched variant; a guarded filter branch only if its
//     guard holds); ties go to the leftmost branch, which `|` requires and
//     `||` allows;
//   - flow inheritance: a box's or filter's outputs carry every label of the
//     input it did not consume and does not set itself;
//   - a star tests the exit pattern before the operand: a record that
//     matches leaves, any other goes through the operand and on to the next
//     replica, each replica with its own state;
//   - a split sends a record to the replica its index tag's value selects
//     (folded into the run's width cap), creating it on first use;
//   - a synchrocell stores the first match of each pattern, emits the merge
//     of the stored records once all are filled (earlier patterns win a label
//     both carry), and passes every other record through;
//   - a filter rewrites a record its pattern (and guard) matches and passes
//     any other through unchanged.
//
// A record the runtime drops with an error (no route, no index tag, star depth
// cap, a failing filter or box) the evaluator drops too, and counts.
//
// Evaluated depth first, every deterministic combinator's order is the
// sequence the runtime must produce (outputs of input n before those of input
// n+1, recursively); a non-deterministic one fixes only the multiset.  What
// else may depend on the schedule is reported, not guessed: a synchrocell
// whose input order a non-deterministic merge decides, and a tie under `||`.

// evaluation is the result of evaluating one input sequence.
type evaluation struct {
	out []*Record
	// ordered: the tree has no non-deterministic combinator, so out is the one
	// order the runtime may produce; otherwise only its multiset is fixed.
	ordered bool
	// loose lists what makes even the multiset depend on the run: synchrocells
	// a non-deterministic merge feeds, and ties under `||`.
	loose []string
	errs  int
	// opaque names a node the evaluator has no rule for (a test's own Node
	// type); then nothing was evaluated.
	opaque string
}

// evaluator is one evaluation's state: the run options it honours (the star
// depth and split width caps), a plan per box, and what it found.
type evaluator struct {
	maxDepth, maxWidth int
	boxes              map[Node]*Plan
	errs               int
	loose              map[string]bool
}

// evalNode is one instance of a tree position: the state §4 gives it.
type evalNode struct {
	g        *GraphNode
	kids     []*evalNode       // serial: its two sides; parallel: its branches
	operand  *evalNode         // star: this replica's operand
	next     *evalNode         // star: the replica after this one
	depth    int               // star: this replica's index
	replicas map[int]*evalNode // split: by folded tag value
	stored   []*Record         // sync: the first match per pattern
	fired    bool              // sync: a transparent identity from now on
}

// evaluate runs inputs through p's tree.  Of opts it reads the star depth and
// split width caps; batch sizes and box widths do not change what a network
// computes.
func evaluate(p *Plan, inputs []*Record, opts ...Option) *evaluation {
	var caps runEnv
	caps.maxDepth, caps.maxWidth = 1<<20, 1<<20
	for _, o := range opts {
		o(&caps)
	}
	ev := &evaluator{maxDepth: caps.maxDepth, maxWidth: caps.maxWidth,
		boxes: map[Node]*Plan{}, loose: map[string]bool{}}
	res := &evaluation{ordered: deterministic(p.Graph()), opaque: opaque(p.Graph())}
	if res.opaque != "" {
		return res
	}
	root := ev.instance(p.Graph(), 0)
	schedLoose(p.Graph(), false, ev.loose)
	for _, r := range inputs {
		ev.feed(root, r, func(o *Record) { res.out = append(res.out, o) })
	}
	for k := range ev.loose {
		res.loose = append(res.loose, k)
	}
	sort.Strings(res.loose)
	res.errs = ev.errs
	return res
}

func (ev *evaluator) instance(g *GraphNode, depth int) *evalNode {
	n := &evalNode{g: g, depth: depth}
	switch g.Kind {
	case "serial", "parallel":
		for _, c := range g.Children {
			n.kids = append(n.kids, ev.instance(c, 0))
		}
	case "sync":
		n.stored = make([]*Record, len(g.Patterns))
	}
	return n
}

// feed runs one record through n, handing every output to emit in order.
func (ev *evaluator) feed(n *evalNode, r *Record, emit func(*Record)) {
	g := n.g
	switch g.Kind {
	case "serial":
		ev.feed(n.kids[0], r, func(o *Record) { ev.feed(n.kids[1], o, emit) })
	case "parallel":
		if i := ev.route(g, r); i >= 0 {
			ev.feed(n.kids[i], r, emit)
		}
	case "star":
		switch {
		case evalMatches(*g.Exit, r):
			emit(r)
		case n.depth >= ev.maxDepth:
			ev.errs++
		default:
			if n.operand == nil {
				n.operand = ev.instance(g.Children[0], 0)
				n.next = ev.instance(g, n.depth+1)
			}
			ev.feed(n.operand, r, func(o *Record) { ev.feed(n.next, o, emit) })
		}
	case "split":
		v, ok := r.Tag(g.Tag)
		if !ok {
			ev.errs++
			return
		}
		key := ((v % ev.maxWidth) + ev.maxWidth) % ev.maxWidth
		if n.replicas == nil {
			n.replicas = map[int]*evalNode{}
		}
		rep := n.replicas[key]
		if rep == nil {
			rep = ev.instance(g.Children[0], 0)
			n.replicas[key] = rep
		}
		ev.feed(rep, r, emit)
	case "sync":
		ev.join(n, r, emit)
	case "filter":
		if !evalMatches(g.Filter.Pattern, r) {
			emit(r)
			return
		}
		outs, err := g.Filter.Apply(r)
		if err != nil {
			ev.errs++
			return
		}
		for _, o := range outs {
			emit(o)
		}
	case "box":
		for _, o := range ev.apply(g, r) {
			emit(o)
		}
	case "observe":
		emit(r)
	}
}

// opaque returns the path of a node in g the evaluator has no rule for, or "".
func opaque(g *GraphNode) string {
	if g.Kind == "node" {
		return g.Path
	}
	for _, c := range g.Children {
		if p := opaque(c); p != "" {
			return p
		}
	}
	return ""
}

// route picks r's branch by best match, the leftmost of equals; -1 is no
// route, counted as an error.
func (ev *evaluator) route(g *GraphNode, r *Record) int {
	labels := r.Labels()
	pick, best, tie := -1, -1, false
	for i, b := range g.Children {
		switch score := branchScore(b, r, labels); {
		case score > best:
			pick, best, tie = i, score, false
		case score == best && score >= 0:
			tie = true
		}
	}
	if pick < 0 {
		ev.errs++
	}
	if tie && !g.Det {
		ev.loose[tieLoose+g.Path] = true
	}
	return pick
}

// branchScore is how well r, carrying labels, matches branch b: the size of
// the largest input variant it carries (a guarded filter's pattern only if
// the guard holds), or -1 for none.
func branchScore(b *GraphNode, r *Record, labels Variant) int {
	if b.Kind == "filter" && b.Filter.Pattern.Guard != nil {
		if evalMatches(b.Filter.Pattern, r) {
			return len(b.Filter.Pattern.Variant)
		}
		return -1
	}
	score := -1
	for _, v := range b.In {
		if len(v) > score && v.SubsetOf(labels) {
			score = len(v)
		}
	}
	return score
}

// tieLoose starts the looseness a tie under || reports.
const tieLoose = "tie under || at "

// join is the synchrocell.
func (ev *evaluator) join(n *evalNode, r *Record, emit func(*Record)) {
	if n.fired {
		emit(r)
		return
	}
	for k, p := range n.g.Patterns {
		if n.stored[k] == nil && evalMatches(p, r) {
			n.stored[k] = r
			if slices.Contains(n.stored, nil) {
				return
			}
			merged := NewRecord()
			for _, s := range n.stored {
				for _, f := range s.FieldNames() {
					if !merged.HasLabel(Field(f)) {
						merged.SetField(f, s.MustField(f))
					}
				}
				for _, tg := range s.TagNames() {
					if !merged.HasLabel(Tag(tg)) {
						merged.SetTag(tg, s.MustTag(tg))
					}
				}
			}
			n.fired, n.stored = true, nil
			emit(merged)
			return
		}
	}
	emit(r)
}

// apply invokes the box on r through a plan of the box alone, fed r cut down
// to the box's input labels, and adds flow inheritance to plain copies of what
// it emits, handing the run's records back to the arena.
func (ev *evaluator) apply(g *GraphNode, r *Record) []*Record {
	cut := NewRecord()
	for _, l := range g.BoxSig.In {
		if !r.HasLabel(l) {
			ev.errs++
			return nil
		}
		if l.IsTag {
			cut.SetTag(l.Name, r.MustTag(l.Name))
		} else {
			cut.SetField(l.Name, r.MustField(l.Name))
		}
	}
	p := ev.boxes[g.Node]
	if p == nil {
		p = MustCompile(g.Node)
		ev.boxes[g.Node] = p
	}
	// The run reports a failing call before it closes its output, which
	// RunAll has drained when it returns.
	outs, _, _ := p.RunAll(context.Background(), []*Record{cut}, WithBoxWorkers(1),
		WithErrorHandler(func(error) { ev.errs++ }))
	consumed := NewVariant(g.BoxSig.In...)
	for i, o := range outs {
		outs[i] = o.Copy()
		releaseRecord(o)
		inheritByName(outs[i], r, consumed)
	}
	return outs
}

// AgreeWithReference is agreeWithReference for the tests outside the package
// (reference_test.go).
var AgreeWithReference = agreeWithReference

// evalMatches is a pattern match read off §4: the record carries the
// variant's labels and the guard, if any, evaluates to non-zero.
func evalMatches(p Pattern, r *Record) bool {
	if !p.Variant.SubsetOf(r.Labels()) {
		return false
	}
	if p.Guard == nil {
		return true
	}
	v, err := evalTagRec(p.Guard, r)
	return err == nil && v != 0
}

// deterministic reports whether g holds no non-deterministic combinator.
func deterministic(g *GraphNode) bool {
	if (g.Kind == "parallel" || g.Kind == "star" || g.Kind == "split") && !g.Det {
		return false
	}
	for _, c := range g.Children {
		if !deterministic(c) {
			return false
		}
	}
	return true
}

// schedLoose records in loose every synchrocell whose input order a
// non-deterministic merge decides: behind one in a pipeline (shuffled), or in
// a star replica behind an operand holding one.
func schedLoose(g *GraphNode, shuffled bool, loose map[string]bool) {
	switch g.Kind {
	case "sync":
		if shuffled {
			loose["synchrocell behind a non-deterministic merge at "+g.Path] = true
		}
	case "serial":
		schedLoose(g.Children[0], shuffled, loose)
		schedLoose(g.Children[1], shuffled || !deterministic(g.Children[0]), loose)
	case "star":
		schedLoose(g.Children[0], shuffled || !deterministic(g.Children[0]), loose)
	default:
		for _, c := range g.Children {
			schedLoose(c, shuffled, loose)
		}
	}
}

// evalRender renders a record with its field values in full: a value with a
// String method by it, anything else by its contents, never by an address.
func evalRender(r *Record) string {
	var parts []string
	for _, f := range r.FieldNames() {
		parts = append(parts, f+"="+renderValue(reflect.ValueOf(r.MustField(f))))
	}
	for _, tg := range r.TagNames() {
		parts = append(parts, fmt.Sprintf("<%s>=%d", tg, r.MustTag(tg)))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func renderValue(v reflect.Value) string {
	if !v.IsValid() {
		return "nil"
	}
	if v.CanInterface() {
		if s, ok := v.Interface().(fmt.Stringer); ok && (v.Kind() != reflect.Pointer || !v.IsNil()) {
			return s.String()
		}
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return "nil"
		}
		return renderValue(v.Elem())
	case reflect.Struct:
		parts := make([]string, v.NumField())
		for i := range parts {
			parts[i] = renderValue(v.Field(i))
		}
		return "{" + strings.Join(parts, " ") + "}"
	case reflect.Slice, reflect.Array:
		parts := make([]string, v.Len())
		for i := range parts {
			parts[i] = renderValue(v.Index(i))
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	return fmt.Sprint(v)
}

// rendered is out as the evaluation fixes it: the sequence when ordered, else
// the sorted multiset.
func (e *evaluation) rendered(out []*Record) string {
	lines := make([]string, len(out))
	for i, r := range out {
		lines[i] = evalRender(r)
	}
	if !e.ordered {
		sort.Strings(lines)
	}
	return strings.Join(lines, "\n")
}

// check holds a run's output to the evaluation: the same sequence under
// deterministic combinators, the same multiset otherwise.  Where even that
// depends on the schedule (loose) it compares the number of records, saying
// why, and under a tie under || nothing: §4 lets the tie go to any of the
// tied branches, which may emit different numbers of records.
func (e *evaluation) check(t testing.TB, got []*Record) {
	t.Helper()
	if e.opaque != "" {
		t.Logf("no rule for the node at %s: not compared with the reference", e.opaque)
		return
	}
	if len(e.loose) > 0 {
		if slices.ContainsFunc(e.loose, func(l string) bool { return strings.HasPrefix(l, tieLoose) }) {
			t.Logf("the output depends on the schedule (%s): not compared", strings.Join(e.loose, "; "))
			return
		}
		t.Logf("the output depends on the schedule (%s): comparing its size only", strings.Join(e.loose, "; "))
		if len(got) != len(e.out) {
			t.Errorf("the run emitted %d records, the reference %d", len(got), len(e.out))
		}
		return
	}
	if want, have := e.rendered(e.out), e.rendered(got); have != want {
		t.Errorf("the run diverges from the reference evaluator (ordered=%v):\n--- reference ---\n%s\n--- run ---\n%s",
			e.ordered, want, have)
	}
}

// The harness: every test that holds runs of a net to the evaluator runs
// each (W, B) cell of a matrix — box widths ws (0 leaves the width to the
// engine) by batch sizes 1, 8 and 64 — in both cells of run_test.go, a
// one-shot run in "fuse=true" and a started one in "fuse=false", each a fresh
// net over fresh inputs held to one evaluation.  flat names a cell
// "fuse=…_W…_B…"; otherwise the two cells are subtests of "W…_B…".
func agreeMatrix(t *testing.T, ws []int, flat bool, want *evaluation, mkNet func() Node, inputs func() []*Record, opts ...Option) {
	t.Helper()
	for _, w := range ws {
		for _, b := range []int{1, 8, 64} {
			name := fmt.Sprintf("W%d_B%d", w, b)
			if w == 0 {
				name = fmt.Sprintf("Wunset_B%d", b)
			}
			run := func(t *testing.T, c cell) {
				var out []*Record
				_, _, err := c.until(context.Background(), compileNet(mkNet()), inputs(),
					func(r *Record) bool { out = append(out, r); return false },
					append(slices.Clone(opts), WithBoxWorkers(w), WithStreamBatch(b)))
				if err != nil {
					t.Fatal(err)
				}
				want.check(t, out)
			}
			if !flat {
				t.Run(name, func(t *testing.T) { eachCell(t, run) })
				continue
			}
			for _, ref := range []bool{true, false} {
				t.Run(fmt.Sprintf("%v_%s", cell{ref: ref}, name), func(t *testing.T) { run(t, cell{t: t, ref: ref}) })
			}
		}
	}
}

// agreeWithReference holds mkNet() over inputs() with opts to the evaluator
// at box widths unset, 1 and 4, and reports whether it compared the whole
// output.  A non-empty orderFree says why the net's output does not depend on
// the schedule although the evaluator cannot tell (a synchrocell that
// receives one record per pattern, whatever their order): then the whole
// multiset is compared.
func agreeWithReference(t *testing.T, mkNet func() Node, inputs func() []*Record, orderFree string, opts ...Option) (exact bool) {
	t.Helper()
	want := evaluate(compileNet(mkNet()), inputs(), opts...)
	if len(want.loose) > 0 && orderFree != "" {
		t.Logf("%s: %s; comparing the whole multiset", strings.Join(want.loose, "; "), orderFree)
		want.loose = nil
	}
	agreeMatrix(t, []int{0, 1, 4}, false, want, mkNet, inputs, opts...)
	return want.opaque == "" && len(want.loose) == 0
}

// The evaluator's rules, each on a net whose output is written down here, not
// taken from a run.
func TestEvaluatorRules(t *testing.T) {
	sig := func(s string) *BoxSignature { return MustParseSignature(s) }
	cases := []struct {
		name   string
		net    func() Node
		inputs []*Record
		opts   []Option
		want   string // one record a line, in order if the net is deterministic
		errs   int
	}{
		{"best match, then leftmost of equals",
			func() Node {
				return ParallelDet(MustFilter("{a} -> {a, <left>}"), MustFilter("{a,b} -> {a, b, <best>}"),
					MustFilter("{a} -> {a, <right>}"))
			},
			[]*Record{NewRecord().SetField("a", 1), NewRecord().SetField("a", 2).SetField("b", 3), NewRecord().SetField("c", 4)},
			nil, "{a=1, <left>=0}\n{a=2, b=3, <best>=0}", 1},
		{"a guarded branch attracts only records its guard admits",
			func() Node {
				return ParallelDet(MustFilter("{<n>} | <n> > 2 -> {<big>=<n>}"), MustFilter("{<n>} -> {<small>=<n>}"))
			},
			[]*Record{NewRecord().SetTag("n", 1), NewRecord().SetTag("n", 5)},
			nil, "{<small>=1}\n{<big>=5}", 0},
		{"flow inheritance through a box",
			func() Node {
				return NewBox("ev_inc", sig("(<n>) -> (<n>) | (<m>,x)"), func(args []any, out *Emitter) error {
					if err := out.Out(1, args[0].(int)+1); err != nil {
						return err
					}
					return out.Out(2, 7, "y")
				})
			},
			[]*Record{NewRecord().SetTag("n", 1).SetField("x", "keep").SetTag("u", 9)},
			nil, "{x=keep, <n>=2, <u>=9}\n{x=y, <m>=7, <u>=9}", 0},
		{"a star tests its exit before its operand",
			func() Node {
				return StarDet(MustFilter("{<n>} -> {<n>=<n>-1}"), MustParsePattern("{<n>} | <n> <= 0"))
			},
			[]*Record{NewRecord().SetTag("n", 0), NewRecord().SetTag("n", 3)},
			nil, "{<n>=0}\n{<n>=0}", 0},
		{"a star past its depth cap drops",
			func() Node {
				return StarDet(MustFilter("{<n>} -> {<n>=<n>-1}"), MustParsePattern("{<n>} | <n> <= 0"))
			},
			[]*Record{NewRecord().SetTag("n", 2), NewRecord().SetTag("n", 5)},
			[]Option{WithMaxStarDepth(3)}, "{<n>=0}", 1},
		{"a split keeps one replica per tag value, each with its own state",
			func() Node {
				return SplitDet(Sync(MustParsePattern("{a}"), MustParsePattern("{b}")), "k")
			},
			[]*Record{NewRecord().SetField("a", 1).SetTag("k", 1), NewRecord().SetField("a", 2).SetTag("k", 2),
				NewRecord().SetField("b", 3).SetTag("k", 2), NewRecord().SetField("b", 4).SetTag("k", 1),
				NewRecord().SetField("b", 5)},
			nil, "{a=2, b=3, <k>=2}\n{a=1, b=4, <k>=1}", 1},
		{"a split folds tags into its width cap",
			func() Node {
				return SplitDet(Sync(MustParsePattern("{a}"), MustParsePattern("{b}")), "k")
			},
			[]*Record{NewRecord().SetField("a", 1).SetTag("k", 1), NewRecord().SetField("b", 2).SetTag("k", -1)},
			[]Option{WithMaxSplitWidth(2)}, "{a=1, b=2, <k>=1}", 0},
		{"a synchrocell keeps the first match, earlier patterns win, then passes",
			func() Node {
				return Sync(MustParsePattern("{a}"), MustParsePattern("{b}"))
			},
			[]*Record{NewRecord().SetField("a", 1).SetTag("t", 1), NewRecord().SetField("a", 2),
				NewRecord().SetField("b", 3).SetTag("t", 2), NewRecord().SetField("b", 4)},
			nil, "{a=2}\n{a=1, b=3, <t>=1}\n{b=4}", 0},
		{"a filter passes what its pattern does not match",
			func() Node { return MustFilter("{<n>} | <n> % 2 == 0 -> {<h>=<n>/2}; {<n>}") },
			[]*Record{NewRecord().SetTag("n", 3), NewRecord().SetTag("n", 4).SetField("x", 1)},
			nil, "{<n>=3}\n{x=1, <h>=2}\n{x=1, <n>=4}", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, _ := Compile(tc.net())
			e := evaluate(p, tc.inputs, tc.opts...)
			if !e.ordered || len(e.loose) != 0 {
				t.Fatalf("a deterministic net: ordered=%v loose=%v", e.ordered, e.loose)
			}
			if got := e.rendered(e.out); got != tc.want || e.errs != tc.errs {
				t.Fatalf("got (%d errors)\n%s\nwant (%d errors)\n%s", e.errs, got, tc.errs, tc.want)
			}
		})
	}
}

// TestEvaluatorReportsLooseness: what may depend on the run is said, not
// guessed — a tie under || and a synchrocell a non-deterministic merge feeds —
// and a net of deterministic combinators is ordered.  Each net's run is held
// to its evaluation: under a tie whose branches emit different numbers of
// records, the run's count may differ from the reference's.
func TestEvaluatorReportsLooseness(t *testing.T) {
	tap := func() Node { return Observe("", nil) }
	join := func() Node { return Sync(MustParsePattern("{a}"), MustParsePattern("{b}")) }
	for _, tc := range []struct {
		name    string
		net     Node
		ordered bool
		loose   int
	}{
		{"det", Serial(ParallelDet(tap(), tap()), join()), true, 0},
		{"tie under ||", Parallel(tap(), tap()), false, 1},
		{"tie under || between unequal branches", Parallel(MustFilter("{<k>} -> {<k>}"), MustFilter("{<k>} -> {<k>}; {<k>}")), false, 1},
		{"sync behind a merge", Serial(Parallel(MustFilter("{a} -> {a}"), MustFilter("{b} -> {b}")), join()), false, 1},
		{"sync in a replica", Split(join(), "k"), false, 0},
		{"sync behind a non-deterministic operand", Star(Serial(Split(tap(), "k"), join()), MustParsePattern("{<done>}")), false, 1},
	} {
		in := func() []*Record {
			return []*Record{NewRecord().SetField("a", 1).SetTag("k", 1), NewRecord().SetField("b", 1).SetTag("k", 1)}
		}
		e := evaluate(compileNet(tc.net), in(), WithMaxStarDepth(4))
		if e.ordered != tc.ordered || len(e.loose) != tc.loose {
			t.Errorf("%s: ordered=%v loose=%v, want ordered=%v and %d loose", tc.name, e.ordered, e.loose, tc.ordered, tc.loose)
		}
		out, _ := runNet(t, tc.net, in(), WithMaxStarDepth(4))
		e.check(t, out)
	}
}
