package core

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"
)

// The reference for split replicas: whichever goroutine steps them, the
// replicas of Split(Serial(Sync({a},{b}), box), "k") keep their own
// synchrocell state — a key's join takes that key's halves and no other's, a
// record after the join passes the fired cell, a second {a} before it passes
// the filled pattern, and a half that never finds its other half starves — and
// every replica counts as one box instance.  The split sits as a stage (in a
// parallel branch, in a star stage) and as a site of its own at the top level,
// deterministic there too.

// replicaPos is one position of the split in a network.
type replicaPos struct {
	name string
	det  bool
	wrap func(split Node) Node
}

func replicaPositions() []replicaPos {
	top := func(s Node) Node { return s }
	return []replicaPos{
		{name: "parallel branch", wrap: func(s Node) Node {
			side := NewBox("rk_side", MustParseSignature("(x) -> (x)"),
				func(args []any, out *Emitter) error { return out.Out(1, args[0]) })
			return Parallel(side, s)
		}},
		{name: "star stage", wrap: func(s Node) Node {
			return Star(Serial(s, MustFilter("{<k>} -> {<k>, <done>=1}")), MustParsePattern("{<done>}"))
		}},
		{name: "top level", wrap: top},
		{name: "top level det", det: true, wrap: top},
	}
}

// replicaNet builds the net at pos, fresh: an escalation verdict is state of
// its box node.
func replicaNet(pos replicaPos) (Node, *boxNode) {
	box := NewBox("rk_box", MustParseSignature("(<k>) -> (<k>,<boxed>)"),
		func(args []any, out *Emitter) error { return out.Out(1, args[0], 1) })
	body := Serial(NamedSync("rk_join", MustParsePattern("{a}"), MustParsePattern("{b}")), box)
	split := NamedSplit("rk", body, "k")
	if pos.det {
		split = NamedSplitDet("rk", body, "k")
	}
	return pos.wrap(split), box.(*boxNode)
}

// replicaIn is one input: field a or b, valued with its position, for key k.
type replicaIn struct {
	field string
	k     int
}

// replicaInputs interleave six keys.  Key 1 gets a third record after its
// join has fired; key 5 an {a}, then a second {a} that passes the filled
// pattern, and never a {b}: it starves.
var replicaInputs = []replicaIn{
	{"a", 0}, {"a", 1}, {"b", 2}, {"b", 1}, {"a", 3}, {"a", 5}, {"b", 0},
	{"a", 2}, {"a", 5}, {"b", 3}, {"a", 1}, {"a", 4}, {"b", 4},
}

func (in replicaIn) record(seq int) *Record {
	return AcquireRecord().SetField(in.field, seq).SetTag("k", in.k)
}

// replicaLine renders an output record: its key and the positions of the
// inputs it carries.
func replicaLine(t *testing.T, r *Record) string {
	t.Helper()
	field := func(name string) string {
		if v, ok := r.Field(name); ok {
			return fmt.Sprint(v)
		}
		return "-"
	}
	if tagOf(t, r, "boxed") != 1 {
		t.Errorf("record %v did not pass the box", r)
	}
	return fmt.Sprintf("k=%d a=%s b=%s", tagOf(t, r, "k"), field("a"), field("b"))
}

// replicaWant is the output by the synchrocell's definition, one cell per
// key, in input order, and the number of keys whose cell fires.
func replicaWant(inputs []replicaIn) (out []string, fired int) {
	stored := map[int]map[string]int{}
	done := map[int]bool{}
	for seq, in := range inputs {
		s := stored[in.k]
		if s == nil {
			s = map[string]int{}
			stored[in.k] = s
		}
		_, filled := s[in.field]
		if done[in.k] || filled {
			line := map[string]string{"a": "-", "b": "-"}
			line[in.field] = fmt.Sprint(seq)
			out = append(out, fmt.Sprintf("k=%d a=%s b=%s", in.k, line["a"], line["b"]))
			continue
		}
		if s[in.field] = seq; len(s) == 2 {
			done[in.k] = true
			fired++
			out = append(out, fmt.Sprintf("k=%d a=%d b=%d", in.k, s["a"], s["b"]))
		}
	}
	return out, fired
}

// checkReplicaCounts asserts the split's, the cell's and the box's counters.
func checkReplicaCounts(t *testing.T, st *Stats, keys, fired, starved, calls int) {
	t.Helper()
	for key, want := range map[string]int64{
		"split.rk.replicas": int64(keys), "sync.rk_join.fired": int64(fired), "sync.rk_join.starved": int64(starved),
		"box.rk_box.instances": int64(keys), "box.rk_box.calls": int64(calls),
	} {
		if got := st.Counter(key); got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	if got := st.Max("split.rk.width"); got != int64(keys) {
		t.Errorf("split.rk.width.max = %d, want %d", got, keys)
	}
}

func TestSplitReplicasKeepTheirOwnState(t *testing.T) {
	bothPlans(t, testSplitReplicasKeepTheirOwnState)
}

func testSplitReplicasKeepTheirOwnState(t *testing.T, m execMode) {
	want, fired := replicaWant(replicaInputs)
	keys := map[int]bool{}
	for _, in := range replicaInputs {
		keys[in.k] = true
	}
	for _, pos := range replicaPositions() {
		for _, w := range []int{0, 1, 4} {
			t.Run(fmt.Sprintf("%s/W%d", pos.name, w), func(t *testing.T) {
				base, live := goroutineCount(), poolLiveSettled(t)
				var opts []Option
				if w > 0 {
					opts = append(opts, WithBoxWorkers(w))
				}
				net, _ := replicaNet(pos)
				h := m.Start(context.Background(), net, opts...)
				inputs := make([]*Record, len(replicaInputs))
				for seq, in := range replicaInputs {
					inputs[seq] = in.record(seq)
				}
				go h.feed(inputs)
				var got []string
				for r := range h.Out() {
					got = append(got, replicaLine(t, r))
				}
				h.Wait()
				wantOut := slices.Clone(want)
				if !pos.det {
					slices.Sort(got)
					slices.Sort(wantOut)
				}
				if !slices.Equal(got, wantOut) {
					t.Errorf("output:\n got %q\nwant %q", got, wantOut)
				}
				checkReplicaCounts(t, h.Stats(), len(keys), fired, 1, len(want))
				waitForGoroutines(t, base)
				waitPoolLive(t, live)
			})
		}
		// The box turns concurrent while key 1's cell holds its {a}: the
		// replica leaves the hands that stepped it with the stored half, and
		// the join fires when the {b} comes.
		t.Run(pos.name+"/escalates", func(t *testing.T) {
			atLeastProcs(t, 2) // so that a box nobody gave a width has one to turn to
			base, live := goroutineCount(), poolLiveSettled(t)
			net, box := replicaNet(pos)
			h := m.Start(context.Background(), net)
			defer h.Cancel()
			send := func(seq int, in replicaIn) {
				t.Helper()
				if err := h.Send(in.record(seq)); err != nil {
					t.Fatal(err)
				}
			}
			recv := func(want string) {
				t.Helper()
				select {
				case r := <-h.Out():
					if got := replicaLine(t, r); got != want {
						t.Fatalf("output %s, want %s", got, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("no output; want %s", want)
				}
			}
			send(0, replicaIn{"a", 1})
			send(1, replicaIn{"a", 0})
			send(2, replicaIn{"b", 0})
			recv("k=0 a=1 b=2")
			box.escalated.Store(true) // the engine's verdict: from the next record on the box runs concurrently
			send(3, replicaIn{"b", 1})
			recv("k=1 a=0 b=3")
			h.Close()
			for r := range h.Out() {
				t.Errorf("unexpected output %v", r)
			}
			h.Wait()
			st := h.Stats()
			checkReplicaCounts(t, st, 2, 2, 0, 2)
			if st.Counter("box.rk_box.escalated") == 0 {
				t.Errorf("the box never ran concurrently: nothing was handed over")
			}
			waitForGoroutines(t, base)
			waitPoolLive(t, live)
		})
	}
}
