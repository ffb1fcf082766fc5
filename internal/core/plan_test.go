package core

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// The acceptance scenario of the compile-then-run redesign: a Parallel
// branch no record from the producer can ever reach compiles to a
// structured TypeError with a node path — previously the records silently
// all took the other branch (and records aimed at the dead branch failed
// only at runtime).
func TestCompileRejectsUnreachableParallelBranch(t *testing.T) {
	net := Serial(
		NewBox("p", MustParseSignature("(n) -> (a,b)"),
			func(args []any, out *Emitter) error { return out.Out(1, args[0], args[0]) }),
		Parallel(
			routeBox("q", Field("a"), Field("b")),
			routeBox("r", Field("a"), Field("c")), // nothing upstream produces {a,c}
		),
	)
	plan, err := Compile(net)
	if err == nil {
		t.Fatal("Compile accepted a network with an unreachable branch")
	}
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not *CompileError", err)
	}
	var te *TypeError
	if !errors.As(err, &te) {
		t.Fatalf("CompileError does not unwrap to *TypeError: %v", err)
	}
	if te.Code != ErrCodeUnreachable {
		t.Fatalf("code = %q, want %q (err: %v)", te.Code, ErrCodeUnreachable, err)
	}
	if !strings.Contains(te.Path, "/branch[1]/") || !strings.Contains(te.Path, "parallel#") {
		t.Fatalf("path %q does not locate the branch", te.Path)
	}
	if te.Subject() == nil || te.Subject().name() != "r" {
		t.Fatalf("subject = %v", te.Subject())
	}
	// The plan is still returned and still runs: records route to the live
	// branch.
	out, _, rerr := plan.RunAll(context.Background(),
		[]*Record{NewRecord().SetField("n", 1)})
	if rerr != nil || len(out) != 1 {
		t.Fatalf("plan with type errors did not run: out=%d err=%v", len(out), rerr)
	}
}

func TestCompileNoRouteVariant(t *testing.T) {
	net := Parallel(
		routeBox("ab", Field("a"), Field("b")),
		routeBox("ac", Field("a"), Field("c")),
	)
	// Inferred input is {a,b}|{a,c}: both route, compile is clean.
	if _, err := Compile(net); err != nil {
		t.Fatalf("inferred-input compile failed: %v", err)
	}
	// A declared input type with a variant no branch accepts is a definite
	// compile error — the failure that used to be a runtime "matches no
	// branch".
	_, err := Compile(net, WithInputType(RecType{NewVariant(Field("a"))}))
	var te *TypeError
	if !errors.As(err, &te) || te.Code != ErrCodeNoRoute {
		t.Fatalf("err = %v, want no-route TypeError", err)
	}
	if !te.Variant.Equal(NewVariant(Field("a"))) {
		t.Fatalf("variant = %v", te.Variant)
	}
}

func TestCompileBoxReject(t *testing.T) {
	net := Serial(
		NewBox("a", MustParseSignature("(x) -> (y)"), nopFn),
		NewBox("b", MustParseSignature("(y,z) -> (w)"), nopFn),
	)
	// {y} does not satisfy (y,z); inheritance cannot be assumed for the
	// inferred input {x}, so this is definite.
	_, err := Compile(net)
	var te *TypeError
	if !errors.As(err, &te) || te.Code != ErrCodeBoxReject {
		t.Fatalf("err = %v, want box-reject TypeError", err)
	}
	// Declaring a wider input type makes inheritance carry z through a, and
	// the same network compiles.
	if _, err := Compile(net, WithInputType(RecType{NewVariant(Field("x"), Field("z"))})); err != nil {
		t.Fatalf("widened input still fails: %v", err)
	}
}

func TestCompileMissingSplitTag(t *testing.T) {
	net := Serial(
		NewBox("a", MustParseSignature("(x) -> (y)"), nopFn),
		Split(NewBox("b", MustParseSignature("(y) -> (z)"), nopFn), "k"),
	)
	// Inference adds <k> to the split's input, but records produced by box
	// a never carry it.
	_, err := Compile(net, WithInputType(RecType{NewVariant(Field("x"))}))
	var te *TypeError
	if !errors.As(err, &te) || te.Code != ErrCodeMissingTag {
		t.Fatalf("err = %v, want missing-index-tag TypeError", err)
	}
}

func TestCompileDetShadowedDuplicateBranch(t *testing.T) {
	// Deterministic parallel resolves ties leftmost, so an exact duplicate
	// of an earlier branch can never win; nondeterministic rotation keeps
	// both reachable.
	dup := func(det bool) Node {
		a := routeBox("a1", Field("a"))
		b := routeBox("a2", Field("a"))
		if det {
			return ParallelDet(a, b)
		}
		return Parallel(a, b)
	}
	_, err := Compile(dup(true))
	var te *TypeError
	if !errors.As(err, &te) || te.Code != ErrCodeUnreachable {
		t.Fatalf("det duplicate: err = %v, want unreachable-branch", err)
	}
	if _, err := Compile(dup(false)); err != nil {
		t.Fatalf("nondet duplicate flagged: %v", err)
	}
}

func TestCompileCleanStarPipeline(t *testing.T) {
	// The paper's Fig. 1 shape: computeOpts .. (solveOneLevel ** {<done>}).
	net := Serial(
		NewBox("computeOpts", MustParseSignature("(board) -> (board,opts)"), nopFn),
		Star(NewBox("solveOneLevel",
			MustParseSignature("(board,opts) -> (board,opts) | (board,<done>)"), nopFn),
			MustParsePattern("{<done>}")),
	)
	plan, err := Compile(net)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(plan.TypeErrors()) != 0 {
		t.Fatalf("type errors: %v", plan.TypeErrors())
	}
	if !plan.In()[0].Equal(NewVariant(Field("board"))) {
		t.Fatalf("in = %v", plan.In())
	}
	if len(plan.Out()) != 1 || !plan.Out()[0].Has(Tag("done")) {
		t.Fatalf("out = %v", plan.Out())
	}
}

func TestCompileStarGuardedExit(t *testing.T) {
	// A guarded exit pattern (Fig. 3's {<level>} | <level> > 40) may fail
	// at runtime, so the matching variant must still flow into the operand.
	inc := NewBox("lvl", MustParseSignature("(board,<level>) -> (board,<level>)"), nopFn)
	net := Star(inc, MustParsePattern("{<level>} | <level> > 40"))
	plan, err := Compile(net, WithInputType(RecType{NewVariant(Field("board"), Tag("level"))}))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(plan.Out()) != 1 {
		t.Fatalf("out = %v", plan.Out())
	}
}

func TestPlanTopologyJSON(t *testing.T) {
	net := Serial(
		NewBox("inc", MustParseSignature("(<n>) -> (<n>)"), nopFn),
		Parallel(
			MustFilter("{<n>} -> {<n>=<n>*2}"),
			Split(routeBox("w", Field("a")), "k"),
		),
	)
	plan, _ := Compile(net) // branch types overlap; errors irrelevant here
	topo := plan.Topology()
	if topo.Kind != "serial" || len(topo.Children) != 2 {
		t.Fatalf("root topo: %+v", topo)
	}
	par := topo.Children[1]
	if par.Kind != "parallel" || len(par.Children) != 2 {
		t.Fatalf("parallel topo: %+v", par)
	}
	if par.Children[1].Kind != "split" || par.Children[1].Tag != "k" {
		t.Fatalf("split topo: %+v", par.Children[1])
	}
	if !strings.Contains(par.Children[1].Path, "/branch[1]/") {
		t.Fatalf("split path: %q", par.Children[1].Path)
	}
	box := topo.Children[0]
	if box.Kind != "box" || box.Sig != "(<n>) -> (<n>)" {
		t.Fatalf("box topo: %+v", box)
	}
	raw, err := json.Marshal(topo)
	if err != nil {
		t.Fatal(err)
	}
	var back Topology
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Kind != "serial" {
		t.Fatalf("round trip: %+v", back)
	}
}

func TestPlanStartSharesTables(t *testing.T) {
	net := Parallel(routeBox("ab", Field("a"), Field("b")), routeBox("c", Field("c")))
	plan, err := Compile(net)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	pn := net.(*parallelNode)
	if pn.table == nil {
		t.Fatal("Compile did not build the routing table eagerly")
	}
	for i := 0; i < 3; i++ {
		out, _, err := plan.RunAll(context.Background(),
			[]*Record{NewRecord().SetField("a", 1).SetField("b", 2)})
		if err != nil || len(out) != 1 {
			t.Fatalf("run %d: out=%d err=%v", i, len(out), err)
		}
	}
	if n := memoLen(&pn.table.shapeMemo); n != 1 {
		t.Fatalf("memo entries after 3 runs of one shape = %d, want 1", n)
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile did not panic")
		}
	}()
	MustCompile(ParallelDet(routeBox("a1", Field("a")), routeBox("a2", Field("a"))))
}

// TestCompiledNeverNoRoute is the property tying the static and dynamic
// halves together: for randomly generated networks, whenever Compile
// accepts, feeding records shaped exactly like the inferred input variants
// never produces ErrNoRoute at runtime.
func TestCompiledNeverNoRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	fields := []string{"a", "b", "c", "d"}
	randEcho := func(id int) Node {
		in := Variant{}
		for _, f := range fields {
			if rng.Intn(2) == 0 {
				in[Field(f)] = struct{}{}
			}
		}
		return routeBox("g"+strings.Repeat("x", id%3)+string(rune('a'+id%26)), in.Labels()...)
	}
	var build func(depth, id int) Node
	build = func(depth, id int) Node {
		if depth <= 0 || rng.Intn(3) == 0 {
			return randEcho(rng.Intn(1000))
		}
		switch rng.Intn(3) {
		case 0:
			return Serial(build(depth-1, id*2), build(depth-1, id*2+1))
		case 1:
			return Parallel(build(depth-1, id*2), build(depth-1, id*2+1))
		default:
			return ParallelDet(build(depth-1, id*2), build(depth-1, id*2+1))
		}
	}
	accepted := 0
	for trial := 0; trial < 300; trial++ {
		net := build(3, 1)
		plan, err := Compile(net)
		if err != nil {
			continue // rejected networks are outside the property
		}
		accepted++
		var inputs []*Record
		for _, v := range plan.In() {
			r := NewRecord()
			for _, l := range v.Labels() {
				if l.IsTag {
					r.SetTag(l.Name, rng.Intn(8))
				} else {
					r.SetField(l.Name, trial)
				}
			}
			inputs = append(inputs, r)
		}
		_, stats, rerr := plan.RunAll(context.Background(), inputs)
		if rerr != nil {
			t.Fatalf("trial %d: run error %v", trial, rerr)
		}
		for _, k := range stats.Keys() {
			if strings.HasSuffix(k, ".unroutable") && stats.Counter(k) > 0 {
				t.Fatalf("trial %d: Compile accepted %s but %s=%d for inputs %v",
					trial, net, k, stats.Counter(k), inputs)
			}
		}
	}
	if accepted < 30 {
		t.Fatalf("only %d/300 random networks accepted; property undertested", accepted)
	}
}

// A node instance may appear at several graph positions (shared sub-nets,
// or a .snet net referenced twice); the flow pass must route variants
// through every occurrence, not just the first, or the no-ErrNoRoute
// guarantee breaks downstream of the second one.
func TestCompileSharedNodeInstances(t *testing.T) {
	p := Parallel(routeBox("pa", Field("a")), routeBox("pb", Field("b")))
	tail := Parallel(routeBox("qa", Field("a")), routeBox("qb", Field("b")))
	net := Serial(p, Serial(p, tail))
	plan, err := Compile(net)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	out, stats, rerr := plan.RunAll(context.Background(),
		[]*Record{NewRecord().SetField("a", 1)})
	if rerr != nil || len(out) != 1 {
		t.Fatalf("out=%d err=%v", len(out), rerr)
	}
	for _, k := range stats.Keys() {
		if strings.HasSuffix(k, ".unroutable") && stats.Counter(k) > 0 {
			t.Fatalf("Compile accepted but %s=%d", k, stats.Counter(k))
		}
	}
}

// Downstream of a synchrocell the variant set is approximate, so a branch
// the approximation never feeds must warn, not hard-error: the sync's
// merged record can carry inherited labels the analysis dropped.
func TestUnreachableDowngradesAfterSync(t *testing.T) {
	net := Serial(
		Sync(MustParsePattern("{a}"), MustParsePattern("{b}")),
		Parallel(
			routeBox("ab", Field("a"), Field("b")),
			routeBox("abe", Field("a"), Field("b"), Field("extra")),
		),
	)
	plan, err := Compile(net, WithInputType(RecType{
		NewVariant(Field("a"), Field("extra")), NewVariant(Field("b"))}))
	if err != nil {
		t.Fatalf("Compile hard-failed on an approximate finding: %v", err)
	}
	found := false
	for _, d := range plan.Warnings() {
		if d.Warning && strings.Contains(d.Msg, "unreachable") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected an unreachable warning, got %v", plan.Warnings())
	}
	// And the branch really is reachable at runtime: {a,extra}+{b} merge to
	// {a,b,extra}, which routes to abe.
	_, stats, rerr := plan.RunAll(context.Background(), []*Record{
		NewRecord().SetField("a", 1).SetField("extra", 2),
		NewRecord().SetField("b", 3),
	})
	if rerr != nil {
		t.Fatal(rerr)
	}
	routed := false
	for _, k := range stats.Keys() {
		if strings.HasSuffix(k, ".branch1") && stats.Counter(k) > 0 {
			routed = true
		}
	}
	if !routed {
		t.Fatalf("merged record did not reach branch 1: %v", stats.Snapshot())
	}
}
