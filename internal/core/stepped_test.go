package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// The reference for stepped branches: a split replica or parallel branch
// whose body is a run of stages is stepped by its dispatcher (merge.go), and
// the same net at WithBoxWorkers(4) — a box given width 4 must run
// concurrently, so every branch holding one runs as its cut, on goroutines
// and behind an input stream of its own — is what it must agree with: the
// same sequence under the deterministic combinators, the same multiset under
// the others, the same invocation and join counts.

// steppedBody is one branch body of the matrix.  Its n inputs are dealt round
// robin to `ways` instances (split replicas keyed by <k>, or the one parallel
// branch); mark, if set, makes r — the pos-th record of instance inst — one
// the body accepts (it carries <seq> and <k> already), and outs is how many
// records the body emits for all n.
type steppedBody struct {
	name string
	mk   func() Node
	mark func(inst, pos, ways int, r *Record)
	outs func(n, ways int) int
}

func steppedBodies() []steppedBody {
	perInput := func(per func(i int) int) func(n, ways int) int {
		return func(n, _ int) (total int) {
			for i := 0; i < n; i++ {
				total += per(i)
			}
			return total
		}
	}
	emitN := func(name string, count func(seq int) int) func() Node {
		return func() Node {
			return NewBox(name, MustParseSignature("(<seq>) -> (<seq>,<part>)"),
				func(args []any, out *Emitter) error {
					seq := args[0].(int)
					for part := 0; part < count(seq); part++ {
						if err := out.Out(1, seq, part); err != nil {
							return err
						}
					}
					return nil
				})
		}
	}
	return []steppedBody{
		{name: "filter",
			mk:   func() Node { return MustFilter("{<seq>} -> {<seq>, <x>=<seq>*2}; {<seq>, <y>=1}") },
			outs: perInput(func(int) int { return 2 })},
		{name: "tap",
			mk:   func() Node { return Observe("sb_tap", nil) },
			outs: perInput(func(int) int { return 1 })},
		{name: "sync..box",
			// Per instance the inputs alternate {a}, {b}, {a}, …: the first pair
			// joins, the rest passes the fired cell.  The last instance of
			// several sees {a} only: its cell starves holding one.
			mk: func() Node {
				return Serial(
					NamedSync("sb_join", MustParsePattern("{a}"), MustParsePattern("{b}")),
					NewBox("sb_sum", MustParseSignature("(<k>) -> (<k>,<joined>)"),
						func(args []any, out *Emitter) error { return out.Out(1, args[0].(int), 1) }))
			},
			mark: func(inst, pos, ways int, r *Record) {
				if pos%2 == 0 || (ways > 1 && inst == ways-1) {
					r.SetField("a", pos)
				} else {
					r.SetField("b", pos)
				}
			},
			outs: func(n, ways int) int {
				if ways == 1 {
					return n - 1 // one pair became one record
				}
				return n - (ways - 1) - 1 // a pair per joining instance, one record starved
			}},
		{name: "box emits 0", mk: emitN("sb_e0", func(int) int { return 0 }),
			outs: perInput(func(int) int { return 0 })},
		{name: "box emits 1", mk: emitN("sb_e1", func(int) int { return 1 }),
			outs: perInput(func(int) int { return 1 })},
		{name: "box emits 0-1-3", mk: emitN("sb_e3", func(seq int) int { return []int{0, 1, 3}[seq%3] }),
			outs: perInput(func(i int) int { return []int{0, 1, 3}[i%3] })},
	}
}

// steppedCounts renders the counters the two sides must agree on.
func steppedCounts(stats *Stats) string {
	var lines []string
	for key, v := range stats.Snapshot() {
		for _, suffix := range []string{".calls", ".emitted", ".fired", ".starved"} {
			if strings.HasSuffix(key, suffix) && (strings.HasPrefix(key, "box.") || strings.HasPrefix(key, "sync.")) {
				lines = append(lines, fmt.Sprintf("%s=%d", key, v))
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestSteppedBranchesMatchSpawned(t *testing.T) { eachCell(t, testSteppedBranchesMatchSpawned) }

func testSteppedBranchesMatchSpawned(t *testing.T, m cell) {
	const n = 48
	type site struct {
		name string
		ways int
		mk   func(det bool, body Node) Node
		// body says where input i goes: to the body or, at a parallel site,
		// to the branch beside it.
		body func(i int) bool
	}
	sites := []site{
		{name: "split", ways: 4,
			mk: func(det bool, body Node) Node {
				if det {
					return NamedSplitDet("sb_split", body, "k")
				}
				return NamedSplit("sb_split", body, "k")
			},
			body: func(int) bool { return true }},
		{name: "parallel", ways: 1,
			// The body, a branch every fourth record takes, and a branch no
			// record is ever routed to.
			mk: func(det bool, body Node) Node {
				side := NewBox("sb_side", MustParseSignature("(q,<seq>) -> (<seq>,<side>)"),
					func(args []any, out *Emitter) error { return out.Out(1, args[1].(int), 1) })
				never := NewBox("sb_never", MustParseSignature("(never,q,<seq>) -> (<seq>)"),
					func(args []any, out *Emitter) error { return out.Out(1, args[2].(int)) })
				if det {
					return ParallelDet(body, side, never)
				}
				return Parallel(body, side, never)
			},
			body: func(i int) bool { return i%4 != 3 }},
	}
	for _, s := range sites {
		for _, det := range []bool{true, false} {
			for _, body := range steppedBodies() {
				for _, batch := range []int{1, 8, 64} {
					name := fmt.Sprintf("%s/det=%v/%s/B%d", s.name, det, body.name, batch)
					t.Run(name, func(t *testing.T) {
						toBody := 0
						inputs := func() []*Record {
							toBody = 0
							return seqInputs(n, func(i int, r *Record) {
								if !s.body(i) {
									r.SetField("q", i)
									return
								}
								inst, pos := toBody%s.ways, toBody/s.ways
								r.SetTag("k", inst)
								if body.mark != nil {
									body.mark(inst, pos, s.ways, r)
								}
								toBody++
							})
						}
						run := func(opts ...Option) (string, string) {
							out, stats := m.runNet(t, s.mk(det, body.mk()), inputs(),
								append(opts, WithStreamBatch(batch))...)
							if want := body.outs(toBody, s.ways) + (n - toBody); len(out) != want {
								t.Fatalf("%d outputs, want %d:\n%s", len(out), want, renderStream(out))
							}
							lines := strings.Split(renderStream(out), "\n")
							if !det {
								sort.Strings(lines)
							}
							return strings.Join(lines, "\n"), steppedCounts(stats)
						}
						wantOut, wantCounts := run(WithBoxWorkers(4))
						for _, side := range []struct {
							name string
							opts []Option
						}{{"W unset", nil}, {"W=1", []Option{WithBoxWorkers(1)}}} {
							gotOut, gotCounts := run(side.opts...)
							if gotOut != wantOut {
								t.Errorf("%s: output differs from W=4:\n--- want ---\n%s\n--- got ---\n%s",
									side.name, wantOut, gotOut)
							}
							if gotCounts != wantCounts {
								t.Errorf("%s: counters differ from W=4:\n--- want ---\n%s\n--- got ---\n%s",
									side.name, wantCounts, gotCounts)
							}
						}
					})
				}
			}
		}
	}
}
