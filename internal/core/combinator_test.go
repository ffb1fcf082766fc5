package core

import (
	"context"
	"sync/atomic"
	"testing"
)

// --- parallel composition ---

func TestParallelBestMatchRouting(t *testing.T) { eachCell(t, testParallelBestMatchRouting) }

func testParallelBestMatchRouting(t *testing.T, m cell) {
	a := NewBox("viaA", MustParseSignature("(a) -> (a,<viaA>)"),
		func(args []any, out *Emitter) error { return out.Out(1, args[0], 1) })
	b := NewBox("viaB", MustParseSignature("(a,b) -> (a,<viaB>)"),
		func(args []any, out *Emitter) error { return out.Out(1, args[0], 1) })
	n := Parallel(a, b)
	r1 := NewRecord().SetField("a", 1)
	r2 := NewRecord().SetField("a", 2).SetField("b", 2)
	out, _ := m.runNet(t, n, []*Record{r1, r2})
	if len(out) != 2 {
		t.Fatalf("got %d records", len(out))
	}
	for _, r := range out {
		av, _ := r.Field("a")
		_, viaA := r.Tag("viaA")
		_, viaB := r.Tag("viaB")
		if av == 1 && !viaA {
			t.Fatalf("{a} must route to branch A: %v", r)
		}
		if av == 2 && !viaB {
			t.Fatalf("{a,b} must route to the more specific branch B: %v", r)
		}
	}
}

func TestParallelTieBreakUsesBothBranches(t *testing.T) {
	eachCell(t, testParallelTieBreakUsesBothBranches)
}

func testParallelTieBreakUsesBothBranches(t *testing.T, m cell) {
	mk := func(tag string) Node {
		return NewBox(tag, MustParseSignature("(a) -> (a,<"+tag+">)"),
			func(args []any, out *Emitter) error { return out.Out(1, args[0], 1) })
	}
	n := Parallel(mk("left"), mk("right"))
	var inputs []*Record
	for i := 0; i < 10; i++ {
		inputs = append(inputs, NewRecord().SetField("a", i))
	}
	out, _ := m.runNet(t, n, inputs)
	var left, right int
	for _, r := range out {
		if _, ok := r.Tag("left"); ok {
			left++
		}
		if _, ok := r.Tag("right"); ok {
			right++
		}
	}
	if left == 0 || right == 0 {
		t.Fatalf("tie-breaking starved a branch: left=%d right=%d", left, right)
	}
	if left+right != 10 {
		t.Fatalf("lost records: %d + %d", left, right)
	}
}

func TestParallelUnroutableDropped(t *testing.T) { eachCell(t, testParallelUnroutableDropped) }

func testParallelUnroutableDropped(t *testing.T, m cell) {
	a := incBox("a", 1) // wants <n>
	b := NewBox("b", MustParseSignature("(x) -> (x)"),
		func(args []any, out *Emitter) error { return out.Out(1, args[0]) })
	var errs int32
	out, stats := m.runNet(t, Parallel(a, b),
		[]*Record{NewRecord().SetField("zzz", 1)},
		WithErrorHandler(func(error) { atomic.AddInt32(&errs, 1) }))
	if len(out) != 0 || errs != 1 {
		t.Fatalf("out=%d errs=%d", len(out), errs)
	}
	if stats.SumPrefix("parallel.") == 0 {
		t.Fatal("unroutable not counted")
	}
}

func TestParallelThreeBranches(t *testing.T) { eachCell(t, testParallelThreeBranches) }

func testParallelThreeBranches(t *testing.T, m cell) {
	mk := func(field string) Node {
		return NewBox("b_"+field, MustParseSignature("("+field+") -> ("+field+",<hit>)"),
			func(args []any, out *Emitter) error { return out.Out(1, args[0], 1) })
	}
	n := Parallel(mk("x"), mk("y"), mk("z"))
	out, _ := m.runNet(t, n, []*Record{
		NewRecord().SetField("x", 1),
		NewRecord().SetField("y", 1),
		NewRecord().SetField("z", 1),
	})
	if len(out) != 3 {
		t.Fatalf("got %d", len(out))
	}
	for _, r := range out {
		if _, ok := r.Tag("hit"); !ok {
			t.Fatalf("record %v missed its branch", r)
		}
	}
}

func TestParallelNeedsTwoBranches(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Parallel(one) must panic")
		}
	}()
	Parallel(incBox("only", 1))
}

// --- serial replication (star) ---

// decBox decrements <n>; at zero it emits the second variant carrying
// <done>, the classic star termination shape of the paper's Fig. 1.
func decBox() Node {
	return NewBox("dec", MustParseSignature("(<n>) -> (<n>) | (<n>,<done>)"),
		func(args []any, out *Emitter) error {
			n := args[0].(int)
			if n <= 0 {
				return out.Out(2, 0, 1)
			}
			return out.Out(1, n-1)
		})
}

func TestStarUnfoldsOnDemand(t *testing.T) { eachCell(t, testStarUnfoldsOnDemand) }

func testStarUnfoldsOnDemand(t *testing.T, m cell) {
	n := NamedStar("loop", decBox(), MustParsePattern("{<done>}"))
	out, stats := m.runNet(t, n, []*Record{recN(5)})
	if len(out) != 1 {
		t.Fatalf("got %d records", len(out))
	}
	if _, ok := out[0].Tag("done"); !ok {
		t.Fatalf("exit record = %v", out[0])
	}
	// n=5 needs calls with 5,4,3,2,1,0 → 6 replicas, no more.
	if got := stats.Counter("star.loop.replicas"); got != 6 {
		t.Fatalf("replicas = %d, want 6", got)
	}
	if got := stats.Max("star.loop.depth"); got != 6 {
		t.Fatalf("depth = %d, want 6", got)
	}
}

func TestStarImmediateExitCreatesNoReplica(t *testing.T) {
	eachCell(t, testStarImmediateExitCreatesNoReplica)
}

func testStarImmediateExitCreatesNoReplica(t *testing.T, m cell) {
	n := NamedStar("loop", decBox(), MustParsePattern("{<done>}"))
	out, stats := m.runNet(t, n, []*Record{NewRecord().SetTag("n", 3).SetTag("done", 1)})
	if len(out) != 1 {
		t.Fatalf("got %d records", len(out))
	}
	if stats.Counter("star.loop.replicas") != 0 {
		t.Fatal("exit-at-entry must not unfold the chain")
	}
}

func TestStarSharesChainAcrossRecords(t *testing.T) { eachCell(t, testStarSharesChainAcrossRecords) }

func testStarSharesChainAcrossRecords(t *testing.T, m cell) {
	n := NamedStar("loop", decBox(), MustParsePattern("{<done>}"))
	out, stats := m.runNet(t, n, []*Record{recN(5), recN(5), recN(3)})
	if len(out) != 3 {
		t.Fatalf("got %d records", len(out))
	}
	// The chain is shared: max depth 6 replicas in total.
	if got := stats.Counter("star.loop.replicas"); got != 6 {
		t.Fatalf("replicas = %d, want 6", got)
	}
}

func TestStarGuardedExit(t *testing.T) { eachCell(t, testStarGuardedExit) }

func testStarGuardedExit(t *testing.T, m cell) {
	// Exit once <n> drops below 3 — a guarded pattern like Fig. 3's
	// {<level>} | <level> > 40.
	n := NamedStar("loop", incBox("dec", -1), MustParsePattern("{<n>} | <n> < 3"))
	out, stats := m.runNet(t, n, []*Record{recN(6)})
	if len(out) != 1 || tagOf(t, out[0], "n") != 2 {
		t.Fatalf("out = %v", out)
	}
	if got := stats.Counter("star.loop.replicas"); got != 4 {
		t.Fatalf("replicas = %d, want 4 (6→5→4→3→2)", got)
	}
}

func TestStarDepthCapDropsRecords(t *testing.T) { eachCell(t, testStarDepthCapDropsRecords) }

func testStarDepthCapDropsRecords(t *testing.T, m cell) {
	// A chain that never terminates: cap must stop the unfolding.
	never := incBox("spin", 1)
	var errs int32
	out, stats := m.runNet(t, NamedStar("loop", never, MustParsePattern("{<done>}")),
		[]*Record{recN(0)},
		WithMaxStarDepth(10),
		WithErrorHandler(func(error) { atomic.AddInt32(&errs, 1) }))
	if len(out) != 0 {
		t.Fatalf("got %d records", len(out))
	}
	if errs == 0 || stats.Counter("star.loop.overflow") == 0 {
		t.Fatal("overflow not reported")
	}
	if got := stats.Counter("star.loop.replicas"); got != 10 {
		t.Fatalf("replicas = %d, want exactly the cap", got)
	}
}

func TestStarMultiWayFanout(t *testing.T) { eachCell(t, testStarMultiWayFanout) }

func testStarMultiWayFanout(t *testing.T, m cell) {
	// Each stage forks into two children until <n> reaches 0 — the
	// search-tree shape of the sudoku networks.  2^4 = 16 leaves.
	fork := NewBox("fork", MustParseSignature("(<n>) -> (<n>) | (<n>,<done>)"),
		func(args []any, out *Emitter) error {
			n := args[0].(int)
			if n <= 0 {
				return out.Out(2, 0, 1)
			}
			if err := out.Out(1, n-1); err != nil {
				return err
			}
			return out.Out(1, n-1)
		})
	out, stats := m.runNet(t, NamedStar("tree", fork, MustParsePattern("{<done>}")),
		[]*Record{recN(4)})
	if len(out) != 16 {
		t.Fatalf("got %d leaves, want 16", len(out))
	}
	if got := stats.Counter("star.tree.replicas"); got != 5 {
		t.Fatalf("replicas = %d, want 5 (chain depth)", got)
	}
}

// --- parallel replication (split) ---

// instanceNode tags every passing record with a unique per-instance id;
// used to verify replica affinity.
type instanceNode struct{ label string }

var instanceSeq atomic.Int64

func (n *instanceNode) name() string   { return n.label }
func (n *instanceNode) String() string { return "instance" }
func (n *instanceNode) sig() (RecType, RecType) {
	any := RecType{Variant{}}
	return any, any
}
func (n *instanceNode) run(env *runEnv, in *streamReader, out *streamWriter) {
	defer out.close()
	in.autoFlush(out)
	id := int(instanceSeq.Add(1))
	for {
		it, ok := in.recv()
		if !ok {
			return
		}
		if it.rec != nil {
			it.rec.SetTag("instance", id)
		}
		if !out.send(it) {
			in.Discard()
			return
		}
	}
}

func TestSplitSameTagSameReplica(t *testing.T) { eachCell(t, testSplitSameTagSameReplica) }

func testSplitSameTagSameReplica(t *testing.T, m cell) {
	n := NamedSplit("width", &instanceNode{label: "inst"}, "k")
	var inputs []*Record
	for i := 0; i < 30; i++ {
		inputs = append(inputs, NewRecord().SetTag("k", i%3).SetTag("seq", i))
	}
	out, stats := m.runNet(t, n, inputs)
	if len(out) != 30 {
		t.Fatalf("got %d records", len(out))
	}
	byK := map[int]map[int]bool{}
	for _, r := range out {
		k := tagOf(t, r, "k")
		inst := tagOf(t, r, "instance")
		if byK[k] == nil {
			byK[k] = map[int]bool{}
		}
		byK[k][inst] = true
	}
	for k, insts := range byK {
		if len(insts) != 1 {
			t.Fatalf("tag %d reached %d replicas", k, len(insts))
		}
	}
	if got := stats.Counter("split.width.replicas"); got != 3 {
		t.Fatalf("replicas = %d, want 3", got)
	}
	if got := stats.Max("split.width.width"); got != 3 {
		t.Fatalf("width max = %d", got)
	}
}

func TestSplitWidthCapFoldsTags(t *testing.T) { eachCell(t, testSplitWidthCapFoldsTags) }

func testSplitWidthCapFoldsTags(t *testing.T, m cell) {
	n := NamedSplit("width", &instanceNode{label: "inst"}, "k")
	var inputs []*Record
	for i := 0; i < 16; i++ {
		inputs = append(inputs, NewRecord().SetTag("k", i))
	}
	out, stats := m.runNet(t, n, inputs, WithMaxSplitWidth(4))
	if len(out) != 16 {
		t.Fatalf("got %d records", len(out))
	}
	if got := stats.Counter("split.width.replicas"); got != 4 {
		t.Fatalf("replicas = %d, want 4 under the cap", got)
	}
	// k and k+4 must land on the same replica.
	inst := map[int]int{}
	for _, r := range out {
		inst[tagOf(t, r, "k")] = tagOf(t, r, "instance")
	}
	for k := 0; k < 12; k++ {
		if inst[k] != inst[k+4] {
			t.Fatalf("k=%d and k=%d on different replicas under mod-4 cap", k, k+4)
		}
	}
}

func TestSplitNegativeTagValues(t *testing.T) { eachCell(t, testSplitNegativeTagValues) }

func testSplitNegativeTagValues(t *testing.T, m cell) {
	n := NamedSplit("width", &instanceNode{label: "inst"}, "k")
	out, _ := m.runNet(t, n, []*Record{
		NewRecord().SetTag("k", -1),
		NewRecord().SetTag("k", -1),
		NewRecord().SetTag("k", -5),
	}, WithMaxSplitWidth(4))
	if len(out) != 3 {
		t.Fatalf("got %d records", len(out))
	}
	insts := map[int]bool{}
	for _, r := range out {
		if tagOf(t, r, "k") == -1 {
			insts[tagOf(t, r, "instance")] = true
		}
	}
	if len(insts) != 1 {
		t.Fatal("equal negative tags split across replicas")
	}
}

func TestSplitMissingTagReported(t *testing.T) { eachCell(t, testSplitMissingTagReported) }

func testSplitMissingTagReported(t *testing.T, m cell) {
	var errs int32
	out, stats := m.runNet(t, NamedSplit("width", incBox("i", 0), "k"),
		[]*Record{recN(1)},
		WithErrorHandler(func(error) { atomic.AddInt32(&errs, 1) }))
	if len(out) != 0 || errs != 1 {
		t.Fatalf("out=%d errs=%d", len(out), errs)
	}
	if stats.Counter("split.width.untagged") != 1 {
		t.Fatal("untagged not counted")
	}
}

// --- synchrocell ---

func TestSyncJoinsTwoPatterns(t *testing.T) { eachCell(t, testSyncJoinsTwoPatterns) }

func testSyncJoinsTwoPatterns(t *testing.T, m cell) {
	n := Sync(MustParsePattern("{a}"), MustParsePattern("{b}"))
	out, stats := m.runNet(t, n, []*Record{
		NewRecord().SetField("a", 1),
		NewRecord().SetField("b", 2),
		NewRecord().SetField("a", 99), // after firing: passes through
	})
	if len(out) != 2 {
		t.Fatalf("got %d records", len(out))
	}
	joined := out[0]
	if _, ok := joined.Field("b"); !ok {
		t.Fatalf("first output must be the join: %v", joined)
	}
	if av, _ := joined.Field("a"); av != 1 {
		t.Fatalf("join a = %v", av)
	}
	if stats.SumPrefix("sync.") != 1 {
		t.Fatal("sync.fired missing")
	}
}

func TestSyncEarlierPatternPrecedence(t *testing.T) { eachCell(t, testSyncEarlierPatternPrecedence) }

func testSyncEarlierPatternPrecedence(t *testing.T, m cell) {
	n := Sync(MustParsePattern("{a}"), MustParsePattern("{b}"))
	out, _ := m.runNet(t, n, []*Record{
		NewRecord().SetField("a", "first").SetField("x", 1),
		NewRecord().SetField("b", "second").SetField("a", "clash"),
	})
	if len(out) != 1 {
		t.Fatalf("got %d records", len(out))
	}
	if av, _ := out[0].Field("a"); av != "first" {
		t.Fatalf("precedence broken: a = %v", av)
	}
	if _, ok := out[0].Field("x"); !ok {
		t.Fatal("stored labels lost")
	}
}

func TestSyncNonMatchingPassesThrough(t *testing.T) { eachCell(t, testSyncNonMatchingPassesThrough) }

func testSyncNonMatchingPassesThrough(t *testing.T, m cell) {
	n := Sync(MustParsePattern("{a}"), MustParsePattern("{b}"))
	out, _ := m.runNet(t, n, []*Record{NewRecord().SetField("c", 1)})
	if len(out) != 1 {
		t.Fatal("non-matching record must pass through")
	}
}

func TestSyncStarvationCounted(t *testing.T) { eachCell(t, testSyncStarvationCounted) }

func testSyncStarvationCounted(t *testing.T, m cell) {
	n := Sync(MustParsePattern("{a}"), MustParsePattern("{b}"))
	out, stats := m.runNet(t, n, []*Record{NewRecord().SetField("a", 1)})
	if len(out) != 0 {
		t.Fatal("stored record must not be emitted unfired")
	}
	if stats.SumPrefix("sync.") != 1 {
		t.Fatal("starved not counted")
	}
}

func TestSyncNeedsTwoPatterns(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sync(one) must panic")
		}
	}()
	Sync(MustParsePattern("{a}"))
}

// --- nesting ---

func TestNestedCombinators(t *testing.T) { eachCell(t, testNestedCombinators) }

func testNestedCombinators(t *testing.T, m cell) {
	// (inc .. (dec ** {<done>})) !! <k>  — replicated pipelines with an
	// inner replication, the Fig. 2 shape.
	inner := Serial(incBox("plus", 3), NamedStar("loop", decBox(), MustParsePattern("{<done>}")))
	n := NamedSplit("outer", inner, "k")
	var inputs []*Record
	for i := 0; i < 8; i++ {
		inputs = append(inputs, NewRecord().SetTag("n", i).SetTag("k", i%4))
	}
	out, stats := m.runNet(t, n, inputs)
	if len(out) != 8 {
		t.Fatalf("got %d records", len(out))
	}
	for _, r := range out {
		if _, ok := r.Tag("done"); !ok {
			t.Fatalf("record %v did not finish the inner loop", r)
		}
		if _, ok := r.Tag("k"); !ok {
			t.Fatal("index tag lost (flow inheritance through boxes)")
		}
	}
	if got := stats.Counter("split.outer.replicas"); got != 4 {
		t.Fatalf("outer replicas = %d", got)
	}
}

func TestParallelWithContextCancel(t *testing.T) { eachCell(t, testParallelWithContextCancel) }

func testParallelWithContextCancel(t *testing.T, _ cell) {
	ctx, cancel := context.WithCancel(context.Background())
	n := Parallel(incBox("a", 1), NewBox("b", MustParseSignature("(x) -> (x)"),
		func(args []any, out *Emitter) error { return out.Out(1, args[0]) }))
	h := compileNet(n).Start(ctx)
	for i := 0; i < 10; i++ {
		_ = h.Send(recN(i))
	}
	cancel()
	h.Wait() // must terminate
}
