package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// tapChain is the E13/E21 deep-pipeline shape: depth Observe stages, all
// fusible, so a fused compile collapses the whole chain into one segment.
func tapChain(depth int) Node {
	stages := make([]Node, depth)
	for i := range stages {
		stages[i] = Observe(fmt.Sprintf("ftap%d", i), nil)
	}
	return Serial(stages...)
}

// seqBox is a sequential (W=1, fusible) box rewriting <seq>.
func seqBox(name string, f func(int) int) Node {
	return NewBoxConcurrent(name, MustParseSignature("(<seq>) -> (<seq>)"),
		func(args []any, out *Emitter) error {
			return out.Out(1, f(args[0].(int)))
		}, 1)
}

func drainAll(h *Handle) []*Record {
	var out []*Record
	for r := range h.Out() {
		out = append(out, r)
	}
	h.Wait()
	return out
}

// TestFusionTopologyAndGroups pins the compile-side contract: there is one
// tree, the blueprint's; fusion only decides how its spines are cut, and the
// topology reports which stages share a segment.
func TestFusionTopologyAndGroups(t *testing.T) {
	net := tapChain(32)
	plan := MustCompile(net)
	groups := plan.FusionGroups()
	if len(groups) != 1 {
		t.Fatalf("want 1 fusion group, got %v", groups)
	}
	if len(groups[0].Members) != 32 {
		t.Fatalf("want 32 members, got %d", len(groups[0].Members))
	}
	for i, m := range groups[0].Members {
		if want := fmt.Sprintf("ftap%d", i); m != want {
			t.Fatalf("member %d: want %s, got %s", i, want, m)
		}
	}
	parts := plan.spines[net.(*serialNode)]
	if len(parts) != 1 {
		t.Fatalf("a fully fusible chain should be cut into one part, got %d", len(parts))
	}
	if seg, ok := parts[0].(*segment); !ok || len(seg.stages) != 32 {
		t.Fatalf("the one part should be a segment of all 32 stages, got %T", parts[0])
	}
	if plan.Graph().Node != net {
		t.Fatal("the plan's tree must be the blueprint itself")
	}
	raw, err := json.Marshal(plan.Topology())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"fusion_groups"`) {
		t.Fatal("topology JSON should list fusion groups")
	}
	if strings.Contains(string(raw), `"kind":"fused"`) {
		t.Fatal("the topology tree must keep describing the blueprint, stage by stage")
	}
}

// TestFusionBarriers checks the grouping rule end to end: what is no stage
// splits the chain, a lone stage between two such is a segment of one and no
// group, and a box nobody gave a width and a synchrocell are stages like any
// other.
func TestFusionBarriers(t *testing.T) {
	sig := MustParseSignature("(<seq>) -> (<seq>)")
	pass := func(args []any, out *Emitter) error { return out.Out(1, args[0].(int)) }
	net := Serial(
		Observe("f_a", nil), Observe("f_b", nil), // a run of 2
		NewBoxConcurrent("f_w4", sig, pass, 4), // no stage: pinned wider than one
		Observe("f_c", nil),                    // a lone stage
		Split(Observe("f_sp", nil), "seq"),     // no stage
		NewBox("f_auto", sig, pass), NamedSync("f_join", MustParsePattern("{a}"), MustParsePattern("{b}")),
		seqBox("f_sq", func(n int) int { return n }), Observe("f_e", nil), // a run of 4
	)
	plan := MustCompile(net, WithInputType(RecType{
		NewVariant(Field("a"), Tag("seq")),
		NewVariant(Field("b"), Tag("seq")),
	}))
	var got []string
	for _, g := range plan.FusionGroups() {
		got = append(got, fmt.Sprint(g.Members))
	}
	if fmt.Sprint(got) != "[[f_a f_b] [f_auto f_join f_sq f_e]]" {
		t.Fatalf("fusion groups %v", plan.FusionGroups())
	}
}

// TestFusionSharedSubtree: a node instance appearing at several graph
// positions is cut once — one group, one entry in the plan's spine table —
// and stays the shared node it was (blueprints are identity-sensitive: stats
// keys, routing tables).
func TestFusionSharedSubtree(t *testing.T) {
	chain := Serial(Observe("sh_a", nil), Observe("sh_b", nil))
	net := Serial(Split(chain, "k"), Star(chain, MustParsePattern("{<done>}")))
	cut := cutSpines(net)
	spines, groups := cut.spines, cut.groups
	if len(groups) != 1 {
		t.Fatalf("shared chain should fuse once, got %v", groups)
	}
	if len(spines) != 2 {
		t.Fatalf("want the outer spine and the shared chain in the table, got %d spines", len(spines))
	}
	if parts := spines[chain.(*serialNode)]; len(parts) != 1 {
		t.Fatalf("shared chain should be one segment, got %d parts", len(parts))
	}
	s := net.(*serialNode)
	if s.a.(*splitNode).operand != chain || s.b.(*starNode).operand != chain {
		t.Fatal("grouping must not touch the tree")
	}
}

// TestCutSpine is the grouping rule on its own: a flattened pipeline is cut
// into maximal runs of stages, each a segment — a lone stage its own segment
// of one — and what is no stage — a box pinned wider than one, a combinator —
// is a part of its own.
func TestCutSpine(t *testing.T) {
	sig := MustParseSignature("(<seq>) -> (<seq>)")
	pass := func(args []any, out *Emitter) error { return out.Out(1, args[0].(int)) }
	barriers := map[string]Node{
		"W=4 box":  NewBoxConcurrent("cs_w4", sig, pass, 4),
		"parallel": Parallel(Observe("cs_pa", nil), Observe("cs_pb", nil)),
		"star":     Star(Observe("cs_st", nil), MustParsePattern("{<done>}")),
		"split":    Split(Observe("cs_sp", nil), "k"),
		"serial":   Serial(Observe("cs_n1", nil), Observe("cs_n2", nil)), // cut takes a flat pipeline
	}
	stages := []Node{
		Observe("cs_tap", nil), MustFilter("{<h>} -> {}"), MustFilter("{<seq>} -> {<seq>}"),
		NewBoxConcurrent("cs_w1", sig, pass, 1), NewBox("cs_auto", sig, pass),
		Sync(MustParsePattern("{a}"), MustParsePattern("{b}")),
	}
	// render writes a segment part as the number of its stages and any other
	// part as "-", checking that the parts concatenate to nodes.
	render := func(name string, parts []runner, nodes []Node) string {
		var out []string
		var flat []Node
		for _, p := range parts {
			if s, ok := p.(*segment); ok {
				out = append(out, fmt.Sprint(len(s.stages)))
				for _, st := range s.stages {
					flat = append(flat, st.(Node))
				}
				continue
			}
			out = append(out, "-")
			flat = append(flat, p.(Node))
		}
		if fmt.Sprint(flat) != fmt.Sprint(nodes) {
			t.Errorf("%s: the parts do not concatenate to the pipeline", name)
		}
		return fmt.Sprint(out)
	}
	for name, barrier := range barriers {
		nodes := []Node{stages[0], stages[1], barrier, stages[2], barrier, barrier, stages[3], stages[4], stages[5], stages[0]}
		parts := (&spineCutter{}).cut(nodes, false)
		if got, want := render(name, parts, nodes), "[2 - 1 - - 4]"; got != want {
			t.Errorf("%s: parts %s, want %s", name, got, want)
		}
		if parts[2] != runner(stages[2].(stage).solo()) {
			t.Errorf("%s: a lone stage should be its own segment of one", name)
		}
	}

	// A chain that sits on two spines is in a segment on each, cut with its
	// neighbours there: two cuts of one instance.  That is harmless, because a
	// segment is a blueprint like its stages and each execution keeps its
	// stages' state apart (TestSharedChainOnTwoSpines runs such a net).
	shared := Serial(Observe("cs_s1", nil), Observe("cs_s2", nil), Observe("cs_s3", nil))
	net := Parallel(Serial(shared, NewBox("cs_b1", sig, pass)), Serial(NewBox("cs_b2", sig, pass), shared))
	groups := cutSpines(net).groups
	if got := fmt.Sprint(groups[0].Members, groups[1].Members); len(groups) != 2 || got != "[cs_s1 cs_s2 cs_s3 cs_b1] [cs_b2 cs_s1 cs_s2 cs_s3]" {
		t.Fatalf("want the shared chain in one group per spine, got %v", groups)
	}
}

// TestSharedChainOnTwoSpines: a chain holding a synchrocell sits on both
// branches of a deterministic parallel, flattened into each branch's spine.
// Each branch is one segment stepped by the dispatcher, so the chain's stages
// are in two segments at once.  The cell joins once per position — the state
// is the execution's, never the node's — and the run agrees with the
// reference evaluator record for record.
func TestSharedChainOnTwoSpines(t *testing.T) {
	mkNet := func() Node {
		shared := Serial(NamedSync("sc_join", MustParsePattern("{a}"), MustParsePattern("{b}")),
			MustFilter("{<seq>} -> {<seq>=<seq>*10}"))
		return ParallelDet(Serial(MustFilter("{l,<seq>} -> {l,<seq>}"), shared),
			Serial(MustFilter("{r,<seq>} -> {r,<seq>}"), shared))
	}
	inputs := func() []*Record {
		return seqInputs(24, func(i int, r *Record) {
			r.SetField([]string{"l", "r"}[i%2], i).SetField([]string{"a", "b"}[i/2%2], i)
		})
	}
	_, stats := runNet(t, mkNet(), inputs(), WithStreamBatch(4))
	if got := stats.Counter("sync.sc_join.fired"); got != 2 {
		t.Errorf("the cell fired %d times, want once per position", got)
	}
	agreeWithReference(t, mkNet, inputs, "")
}

// TestRoutesLearnOnTheBlueprint: a fused plan runs the blueprint's own
// combinators, so the dispatch entries a run learns land on the route table
// of the parallelNode the builder made — the one Plan.Graph() shows — and
// not on a copy only the executor knows.
func TestRoutesLearnOnTheBlueprint(t *testing.T) {
	par := Parallel(
		Serial(MustFilter("{<a>} -> {<a>=<a>+1}"), Observe("rl_ta", nil)),
		Serial(MustFilter("{<b>} -> {<b>=<b>+1}"), Observe("rl_tb", nil)),
	).(*parallelNode)
	net := Serial(MustFilter("{<seq>} -> {<seq>}"), Observe("rl_in", nil), par,
		MustFilter("{<seq>} -> {<seq>}"), Observe("rl_out", nil))
	plan := MustCompile(net, WithInputType(RecType{
		NewVariant(Tag("a"), Tag("seq")), NewVariant(Tag("b"), Tag("seq"))}))
	if len(plan.FusionGroups()) != 4 {
		t.Fatalf("want 4 fused segments (head, two branches, tail), got %v", plan.FusionGroups())
	}
	var seen *GraphNode
	var find func(g *GraphNode)
	find = func(g *GraphNode) {
		if g.Kind == "parallel" {
			seen = g
		}
		for _, c := range g.Children {
			find(c)
		}
	}
	find(plan.Graph())
	if seen == nil || seen.Node != Node(par) {
		t.Fatal("Plan.Graph() must show the builder's parallelNode")
	}
	if n := memoLen(&par.table.shapeMemo); n != 0 {
		t.Fatalf("route table already has %d entries before any run", n)
	}
	inputs := seqInputs(20, func(i int, r *Record) {
		if i%2 == 0 {
			r.SetTag("a", i)
		} else {
			r.SetTag("b", i)
		}
	})
	out, stats, err := plan.RunAll(context.Background(), inputs)
	if err != nil || len(out) != 20 {
		t.Fatalf("run: %d records, %v", len(out), err)
	}
	if n := memoLen(&par.table.shapeMemo); n != 2 {
		t.Fatalf("the blueprint's route table learned %d shapes, want 2", n)
	}
	if a, b := stats.Counter(par.branchKeys[0]), stats.Counter(par.branchKeys[1]); a != 10 || b != 10 {
		t.Fatalf("branch counters %d/%d, want 10/10", a, b)
	}
}

// mixedFusibleNet exercises every fused op kind between two barriers, with
// multi-output filters and a multi-emit box.
func mixedFusibleNet() Node {
	double := NewBoxConcurrent("fm_double", MustParseSignature("(<n>) -> (<n>,<twice>)"),
		func(args []any, out *Emitter) error {
			n := args[0].(int)
			if err := out.Out(1, n, 2*n); err != nil {
				return err
			}
			return out.Out(1, n+100, 2*(n+100))
		}, 1)
	return Serial(
		Observe("fm_tap", nil),
		MustFilter("{<n>} -> {<n>, <m>=<n>*3}"),
		double,
		MustFilter("{<m>} -> {}"),
		MustFilter("{<twice>} -> {<twice>}; {<twice>=<twice>+1}"),
	)
}

// TestFusedMixedChainOutputs holds the fused execution of a mixed chain to
// the reference evaluator, record for record.
func TestFusedMixedChainOutputs(t *testing.T) {
	inputs := func() []*Record {
		return seqInputs(40, func(i int, r *Record) { r.SetTag("n", i) })
	}
	if g := compileNet(mixedFusibleNet()).FusionGroups(); len(g) != 1 || len(g[0].Members) != 5 {
		t.Fatalf("the chain should be one segment, got %v", g)
	}
	agreeWithReference(t, mixedFusibleNet, inputs, "")
}

// TestFusedSegmentStats: the segment counts its own records/applications
// through held cells and the constituent stages keep their counters.
func TestFusedSegmentStats(t *testing.T) {
	net := Serial(
		Observe("fs_tap", nil),
		MustFilter("{<n>} -> {<n>, <m>=<n>+1}"),
		seqBox("fs_box", func(n int) int { return n }),
	)
	plan := MustCompile(net, WithInputType(RecType{NewVariant(Tag("n"), Tag("seq"))}))
	groups := plan.FusionGroups()
	if len(groups) != 1 {
		t.Fatalf("want 1 group, got %v", groups)
	}
	const n = 25
	inputs := make([]*Record, n)
	for i := range inputs {
		inputs[i] = NewRecord().SetTag("n", i).SetTag("seq", i)
	}
	_, stats, err := plan.RunAll(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	g := groups[0].Name
	if got := stats.Counter("fused." + g + ".records"); got != n {
		t.Errorf("fused records: want %d, got %d", n, got)
	}
	// tap + filter + box apply once per record each.
	if got := stats.Counter("fused." + g + ".applied"); got != 3*n {
		t.Errorf("fused applied: want %d, got %d", 3*n, got)
	}
	if got := stats.SumPrefix("filter."); got != n {
		t.Errorf("constituent filter counters: want %d, got %d", n, got)
	}
	if got := stats.Counter("box.fs_box.calls"); got != n {
		t.Errorf("constituent box calls: want %d, got %d", n, got)
	}
	if got := stats.Counter("box.fs_box.instances"); got != 1 {
		t.Errorf("box instances: want 1, got %d", got)
	}
	// Keys counted through held cells appear in the map-shaped accessors like any other.
	snap := stats.Snapshot()
	if snap["fused."+g+".records"] != n {
		t.Errorf("snapshot is missing the fused segment counters: %v", snap)
	}
	found := false
	for _, k := range stats.Keys() {
		if k == "fused."+g+".records" {
			found = true
		}
	}
	if !found {
		t.Error("Keys() is missing the fused segment counter")
	}
	agg := NewStats()
	agg.Merge(stats)
	if agg.Counter("fused."+g+".records") != n {
		t.Error("Merge dropped the segment counters")
	}
}

// TestFusedPipelineGoroutineBudget: what grouping buys is goroutines.  A
// started plan costs its parts plus the boundary pump: a fully fusible chain
// is one part whatever its depth.
func TestFusedPipelineGoroutineBudget(t *testing.T) {
	const depth = 32
	measure := func(want int) {
		t.Helper()
		plan := MustCompile(tapChain(depth))
		base := goroutineCount()
		h := plan.Start(context.Background())
		if err := h.Send(NewRecord().SetTag("seq", 1)); err != nil {
			t.Fatal(err)
		}
		<-h.Out()
		if grown := runtime.NumGoroutine() - base; grown != want {
			t.Errorf("a %d-stage pipeline runs on %d goroutines, want %d", depth, grown, want)
		}
		h.Close()
		drainAll(h)
		waitForGoroutines(t, base)
	}
	measure(1 + 1)
}

// TestFusedArenaClean: graceful drain and hard cancel both return every
// pooled record to the arena, through multi-output filters and multi-emit
// boxes inside the segment.
func TestFusedArenaClean(t *testing.T) {
	plan := MustCompile(mixedFusibleNet(),
		WithInputType(RecType{NewVariant(Tag("n"), Tag("seq"))}))
	inputs := func(n int) []*Record {
		out := make([]*Record, n)
		for i := range out {
			out[i] = AcquireRecord().SetTag("n", i).SetTag("seq", i)
		}
		return out
	}

	base := poolLiveSettled(t)
	if _, _, err := plan.RunAll(context.Background(), inputs(200), WithStreamBatch(8)); err != nil {
		t.Fatal(err)
	}
	waitPoolLive(t, base)

	// Hard cancel mid-stream: the drainer pulls ~40 records and yanks the
	// context while the segment is still processing.  Records dropped in
	// cancelled frames leave the arena without a release, so the invariant
	// here is prompt unwinding, not pool-live parity.
	gbase := runtime.NumGoroutine()
	h := plan.Start(context.Background(), WithStreamBatch(8))
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		n := 0
		for range h.Out() {
			if n++; n == 40 {
				h.Cancel()
			}
		}
	}()
	for _, r := range inputs(200) {
		if err := h.Send(r); err != nil {
			releaseRecord(r) // rejected sends stay caller-owned
		}
	}
	h.Close()
	<-drained
	h.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > gbase+3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > gbase+3 {
		t.Fatalf("fused segment left goroutines behind after cancel: %d > %d", g, gbase+3)
	}
}

// TestSegmentCancelMidBurst: a box in the middle of a segment that emits
// until it is told to stop, into stages that never send anything — a
// two-output filter, then a filter with no output at all — so no stream is
// there to notice the cancellation.  The emitter notices; the call ends, and
// what the segment held at that moment — the box's input, its held-back
// latest emission, the filter's second output — is back in the arena.
func TestSegmentCancelMidBurst(t *testing.T) {
	emitted := make(chan int, 1)
	bursting := make(chan struct{})
	forever := NewBoxConcurrent("scb_forever", MustParseSignature("(<n>) -> (<i>)"),
		func(args []any, out *Emitter) error {
			i := 0
			for ; out.Out(1, i) == nil; i++ {
				if i == 0 {
					close(bursting)
				}
			}
			emitted <- i
			return ErrCancelled
		}, 1)
	net := Serial(Observe("scb_tap", nil), forever,
		MustFilter("{<i>} -> {<i>}; {<i>=<i>+1}"), MustFilter("{<i>} -> "))
	plan := MustCompile(net, WithInputType(RecType{NewVariant(Tag("n"))}))
	if g := plan.FusionGroups(); len(g) != 1 || len(g[0].Members) != 4 {
		t.Fatalf("the chain should be one segment, got %v", g)
	}
	base := poolLiveSettled(t)
	gbase := goroutineCount()
	h := plan.Start(context.Background())
	if err := h.Send(AcquireRecord().SetTag("n", 1)); err != nil {
		t.Fatal(err)
	}
	<-bursting // the first emission is out: cancel inside the burst
	h.Cancel()
	select {
	case n := <-emitted:
		if n == 0 {
			t.Fatal("the box was stopped before it emitted anything")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the box outlived its run: nothing told its emitter about the cancellation")
	}
	h.Wait()
	waitPoolLive(t, base)
	waitForGoroutines(t, gbase)
	// Wait returns when the output is closed, which a cancelled run does at
	// once; the segment settles the call it was in before its goroutine ends.
	if got := h.Stats().Counter("box.scb_forever.cancelled"); got != 1 {
		t.Errorf("cancelled invocations: want 1, got %d", got)
	}
}

// TestFusedBoxFailureIsolation: errors and panics inside a fused box drop
// the record, count, and keep the segment running — same contract as the
// stand-alone box engine.
func TestFusedBoxFailureIsolation(t *testing.T) {
	faulty := NewBoxConcurrent("ff_box", MustParseSignature("(<seq>) -> (<seq>)"),
		func(args []any, out *Emitter) error {
			switch n := args[0].(int); {
			case n%7 == 3:
				return errors.New("synthetic failure")
			case n%7 == 5:
				panic("synthetic panic")
			default:
				return out.Out(1, n)
			}
		}, 1)
	net := Serial(Observe("ff_tap", nil), faulty)
	plan := MustCompile(net, WithInputType(RecType{NewVariant(Tag("seq"))}))
	if len(plan.FusionGroups()) != 1 {
		t.Fatal("chain should fuse")
	}
	var errCount int
	out, stats, err := plan.RunAll(context.Background(), seqInputs(70, nil),
		WithErrorHandler(func(error) { errCount++ }))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 50 {
		t.Errorf("want 50 surviving records, got %d", len(out))
	}
	if errCount != 20 {
		t.Errorf("want 20 reported errors, got %d", errCount)
	}
	if got := stats.Counter("box.ff_box.panics"); got != 10 {
		t.Errorf("panics: want 10, got %d", got)
	}
}

// TestFusedGuardedRoutingPreserved: fusion must not disturb best-match
// routing — bare guarded filters stay filterNodes (runs < 2 never fuse), and
// a fused chain branch keeps the serial spine's signature: the run agrees
// with the reference evaluator.
func TestFusedGuardedRoutingPreserved(t *testing.T) {
	mkNet := func() Node {
		lo := MustFilter("{<n>} | <n> < 10 -> {<n>, <lo>}")
		hi := MustFilter("{<n>} | <n> >= 10 -> {<n>, <hi>}")
		chain := Serial(MustFilter("{<n>, <lo>} -> {<n>, <lo>}"), Observe("gr_tap", nil))
		// The catch-all branch keeps the static flow total: the checker
		// cannot know the two guards partition {<n>}.  Both layers are
		// deterministic so the merge order is a hard guarantee to compare.
		return Serial(ParallelDet(lo, hi), ParallelDet(chain,
			MustFilter("{<n>, <hi>} -> {<n>, <hi>}"),
			MustFilter("{<n>} -> {<n>, <neither>}")))
	}
	inputs := func() []*Record {
		return seqInputs(30, func(i int, r *Record) { r.SetTag("n", i) })
	}
	agreeWithReference(t, mkNet, inputs, "")
}

// TestFusedDetPropPipeline: a fused chain downstream of a deterministic
// parallel — sort markers must cross the segment in FIFO position at any
// (W, B) in either mode.
func TestFusedDetPropPipeline(t *testing.T) {
	const n = 36
	mkNet := func() Node {
		first := ParallelDet(
			latencyBox("fda", "a,<seq>", 400*time.Microsecond),
			latencyBox("fdb", "b,<seq>", 150*time.Microsecond),
		)
		chain := Serial(
			MustFilter("{<seq>} -> {<seq>, <h>=<seq>*2}"),
			seqBox("fd_sq", func(n int) int { return n }),
			MustFilter("{<h>} -> {}"),
			Observe("fd_tap", nil),
		)
		return Serial(first, chain)
	}
	detMatrix(t, true, mkNet, abInputs(n))
}

// TestFusedDetPropNested: the nested-combinator detprop net with a fusible
// chain spliced between its barriers.
func TestFusedDetPropNested(t *testing.T) {
	const n = 24
	mkNet := func() Node {
		first := ParallelDet(
			latencyBox("fna", "a,<seq>", 300*time.Microsecond),
			latencyBox("fnb", "b,<seq>", 120*time.Microsecond),
		)
		chain := Serial(
			MustFilter("{<seq>} -> {<seq>, <k>=<seq>%3}"),
			Observe("fn_tap", nil),
		)
		second := SplitDet(latencyBox("fns", "<seq>", 500*time.Microsecond), "k")
		return Serial(first, chain, second)
	}
	detMatrix(t, true, mkNet, abInputs(n))
}

// TestFusedStarOperand: star replication over a fused operand — every
// unfolded replica executes the fused segment, and the exits are the
// reference evaluator's.
func TestFusedStarOperand(t *testing.T) {
	mkNet := func() Node {
		dec := NewBoxConcurrent("fst_dec", MustParseSignature("(<n>) -> (<n>) | (<n>,<done>)"),
			func(args []any, out *Emitter) error {
				n := args[0].(int)
				if n <= 0 {
					return out.Out(2, 0, 1)
				}
				return out.Out(1, n-1)
			}, 1)
		return NamedStar("fst_loop", Serial(dec, Observe("fst_tap", nil)),
			MustParsePattern("{<done>}"))
	}
	inputs := func() []*Record {
		return seqInputs(12, func(i int, r *Record) { r.SetTag("n", i%5) })
	}
	agreeWithReference(t, mkNet, inputs, "")
}

// TestFilterProgramEquivalence: the compiled slot program must agree with
// the interpreted specification (oracle_test.go) on every shape — flow
// inheritance, expression tags, zero-init tags, multi-output specs, item
// names given twice (the later item wins) and a source field the input shape
// lacks (both report the same error) — and, on seeded random tag expressions,
// with the tree evaluator (tagprog_test.go).
func TestFilterProgramEquivalence(t *testing.T) {
	type testCase struct {
		name string
		spec *FilterSpec
		rec  func() *Record
	}
	parsed := func(src string, rec func() *Record) testCase {
		return testCase{src, MustParseFilter(src), rec}
	}
	cases := []testCase{
		parsed("{a,b} -> {a, z=b}", func() *Record {
			return NewRecord().SetField("a", 1).SetField("b", 2)
		}),
		parsed("{a,<t>} -> {a,<t>}", func() *Record {
			return NewRecord().SetField("a", 1).SetTag("t", 7)
		}),
		parsed("{a} -> {a,<t>}", func() *Record {
			return NewRecord().SetField("a", 1).SetTag("t", 9) // <t> not consumed: zero-init wins
		}),
		parsed("{<n>} -> {<n>=<n>+1, <m>=<n>*2}", func() *Record {
			return NewRecord().SetTag("n", 21)
		}),
		parsed("{a,<n>} -> {a}; {<n>=<n>-1}", func() *Record {
			return NewRecord().SetField("a", "x").SetTag("n", 3).SetField("extra", 5).SetTag("u", 1)
		}),
		parsed("{x} -> ", func() *Record {
			return NewRecord().SetField("x", 0).SetTag("keep", 4)
		}),
		{"missing source field", &FilterSpec{ // a source outside the pattern: only a built spec can name one
			Pattern: Pattern{Variant: NewVariant(Tag("t"))},
			Outputs: [][]FilterItem{{{Name: "z", Src: "a"}}},
		}, func() *Record { return NewRecord().SetTag("t", 1) }},
		{"duplicate tag item", &FilterSpec{
			Pattern: Pattern{Variant: NewVariant(Tag("n"))},
			Outputs: [][]FilterItem{{
				{Name: "n", IsTag: true},
				{Name: "n", IsTag: true, Expr: MustParseTagExpr("<n>+1")},
			}},
		}, func() *Record { return NewRecord().SetTag("n", 1).SetTag("u", 2) }},
		{"duplicate field item", &FilterSpec{
			Pattern: Pattern{Variant: NewVariant(Field("a"), Field("b"))},
			Outputs: [][]FilterItem{{
				{Name: "z", Src: "a"},
				{Name: "z", Src: "b"},
			}},
		}, func() *Record { return NewRecord().SetField("a", 1).SetField("b", 2) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := tc.rec()
			want, wantErr := tc.spec.Apply(tc.rec())
			got, gotErr := compileFilterProg(tc.spec, rec.shape).apply(nil, rec, nil)
			if wantErr != nil || gotErr != nil {
				if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
					t.Fatalf("errors diverge: interpreter %v, program %v", wantErr, gotErr)
				}
				return
			}
			if renderStream(got) != renderStream(want) {
				t.Fatalf("program output diverges:\n--- interpreter ---\n%s--- program ---\n%s",
					renderStream(want), renderStream(got))
			}
			for _, r := range got {
				releaseRecord(r)
			}
		})
	}
	t.Run("random tag expressions", testRandomTagExprs)
}
