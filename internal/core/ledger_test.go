package core

import (
	"context"
	"fmt"
	"maps"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/sched"
)

// The arena's ledger and the per-record stage counters are exact where they
// are read: after a drained run — at every (W, B), in both cells — their
// deltas are the figures written down here from what each node acquires,
// releases and counts per record, and Live() is back where it started; and so
// is Live() after a cancel that lands in the middle of a frame and after a box
// panic.  A reader polls Handle.Stats() and PoolStats() all the while, for the
// race detector's sake.

// ledgerCase is one network with its inputs and the figures of a drained run.
type ledgerCase struct {
	name   string
	net    func() Node // fresh per run: a box's escalation verdict is learned state of its node
	inputs func() []*Record
	// acquired, recycled, disowned are the ledger's deltas; counters the
	// box.*, filter.*, sync.* and fused.* counters (high-water marks and the
	// engine's escalation count left out), summed over nodes of one name with
	// the serial numbers of anonymous nodes dropped; fusedOnly those only the
	// fused plan reports.  A fused segment holding a box nobody pinned
	// (unpinned) begins as its cut at W=4 and counts nothing of its own
	// there; at W unset one the engine's verdict cuts mid-stream (escalates)
	// has counted what came before the cut, which is the schedule's.
	acquired, recycled, disowned int64
	counters, fusedOnly          map[string]int64
	unpinned                     bool
	// out, when set, is the output written down, one line per record in
	// order: tag <seq> and tag label of each.
	out   []string
	label string
	// escalates names a box the engine must hand over when no width is given.
	escalates string
}

const ledgerN = 192 // divisible by 8 and 64, and by the 4 keys and 2 branches below

func ledgerInputs(n int, extra func(i int, r *Record)) func() []*Record {
	return func() []*Record { return pooledSeqInputs(n, extra) }
}

// ledgerChain is the benchmark's filter_chain: 16 stages, filters, taps and
// boxes pinned to one call at a time interleaved — one segment when fused.
func ledgerChain() Node {
	stages := make([]Node, 16)
	for i := range stages {
		switch i % 3 {
		case 0:
			stages[i] = MustFilter(fmt.Sprintf("{<n>} -> {<n>=(<n>*3+%d)%%1000003}", i))
		case 1:
			stages[i] = Observe(fmt.Sprintf("lc_tap%d", i), nil)
		case 2:
			add := 2*i + 1
			stages[i] = NewBoxConcurrent("lc_step", MustParseSignature("(<n>) -> (<n>)"),
				func(args []any, out *Emitter) error { return out.Out(1, (args[0].(int)+add)%1000003) }, 1)
		}
	}
	return Serial(stages...)
}

// ledgerHandOver is filter .. tap .. box .. sync .. filter .. box with both
// boxes nobody's width: the first slow enough for the engine's verdict, which
// comes mid-stream, the second cheap.  Inputs alternate {a} and {b}: the cell
// joins the first two and is an identity from there on.
func ledgerHandOver() Node {
	box := func(name string, sleep time.Duration, f func(int) int) Node {
		return NewBox(name, MustParseSignature("(<n>) -> (<n>)"), func(args []any, out *Emitter) error {
			time.Sleep(sleep)
			return out.Out(1, f(args[0].(int)))
		})
	}
	return Serial(
		MustFilter("{<n>} -> {<n>=<n>+1}"),
		Observe("lh_tap", nil),
		box("lh_slow", 3*boxEscalateAfter/2, func(n int) int { return 2 * n }),
		NamedSync("lh_join", MustParsePattern("{a}"), MustParsePattern("{b}")),
		MustFilter("{<n>} -> {<n>=<n>+3}"),
		box("lh_cheap", 0, func(n int) int { return 5 * n }),
	)
}

// ledgerStencil is the benchmark's stencil_boxes net, small: smooth .. smooth
// .. smooth .. energy over 8×8 grids, every box nobody's width and a
// with-loop on a sequential pool.
const stencilSide = 8

func smoothAt(d []int64, i, j int) int64 {
	at := func(i, j int) int64 {
		return d[min(max(i, 0), stencilSide-1)*stencilSide+min(max(j, 0), stencilSide-1)]
	}
	return (4*at(i, j) + at(i-1, j) + at(i+1, j) + at(i, j-1) + at(i, j+1)) / 8
}

func ledgerStencil() Node {
	pool, side := sched.New(1), []int{stencilSide, stencilSide}
	smooth := func(name string) Node {
		return NewBox(name, MustParseSignature("(grid) -> (grid)"), func(args []any, out *Emitter) error {
			d := args[0].(*array.Array[int64]).Data()
			return out.Out(1, array.Genarray(pool, side, 0,
				array.GenHalfOpen([]int{0, 0}, side, func(iv []int) int64 { return smoothAt(d, iv[0], iv[1]) })))
		})
	}
	energy := NewBox("ls_energy", MustParseSignature("(grid) -> (<energy>)"), func(args []any, out *Emitter) error {
		d := args[0].(*array.Array[int64]).Data()
		return out.Out(1, int(array.Fold(pool, 0, func(a, b int64) int64 { return a + b },
			array.GenHalfOpen([]int{0, 0}, side, func(iv []int) int64 { v := d[iv[0]*stencilSide+iv[1]]; return v * v }))))
	})
	return Serial(smooth("ls_smooth1"), smooth("ls_smooth2"), smooth("ls_smooth3"), energy)
}

// stencilGrid is the grid of input i, and stencilEnergy what the net makes
// of it, by plain loops.
func stencilGrid(i int) []int64 {
	d := make([]int64, stencilSide*stencilSide)
	for k := range d {
		d[k] = int64((i*7919 + k*31) % 1000)
	}
	return d
}

func stencilEnergy(i int) int {
	d := stencilGrid(i)
	for s := 0; s < 3; s++ {
		next := make([]int64, len(d))
		for k := range next {
			next[k] = smoothAt(d, k/stencilSide, k%stencilSide)
		}
		d = next
	}
	e := 0
	for _, v := range d {
		e += int(v * v)
	}
	return e
}

func ledgerCases() []ledgerCase {
	const n = ledgerN
	return []ledgerCase{{
		// 6 filters and 5 boxes each release their input and acquire their output.
		name: "chain", net: ledgerChain,
		inputs:   ledgerInputs(n, func(i int, r *Record) { r.SetTag("n", i*7919) }),
		acquired: 12 * n, recycled: 11 * n, disowned: n,
		counters: map[string]int64{"filter.filter#.applied": 6 * n,
			"box.lc_step.instances": 5, "box.lc_step.calls": 5 * n, "box.lc_step.emitted": 5 * n},
		fusedOnly: map[string]int64{"fused.fused#.records": n, "fused.fused#.applied": 16 * n},
	}, {
		// A replica per key, stepped where W lets it: the cell merges the pair
		// of its key (2 released, 1 acquired), the box consumes the merger.
		name: "split",
		net: func() Node {
			return Split(Serial(
				Sync(MustParsePattern("{a}"), MustParsePattern("{b}")),
				NewBox("ls_join", MustParseSignature("(a,b) -> (c)"),
					func(args []any, out *Emitter) error { return out.Out(1, args[0].(int)+args[1].(int)) }),
			), "k")
		},
		inputs: ledgerInputs(n, func(i int, r *Record) {
			r.SetTag("k", i/2).SetField([]string{"a", "b"}[i%2], i)
		}),
		acquired: n + n/2 + n/2, recycled: n + n/2, disowned: n / 2,
		counters: map[string]int64{"sync.sync#.fired": n / 2,
			"box.ls_join.instances": n / 2, "box.ls_join.calls": n / 2, "box.ls_join.emitted": n / 2},
		fusedOnly: map[string]int64{"fused.fused#.records": n, "fused.fused#.applied": n / 2},
		unpinned:  true,
	}, {
		// Two branches by field: a filter and a box, and a box alone.
		name: "parallel",
		net: func() Node {
			sum := func(args []any, out *Emitter) error { return out.Out(1, args[1].(int)+1) }
			return Parallel(
				Serial(MustFilter("{a,<n>} -> {a,<n>=<n>*2}"), NewBox("lp_a", MustParseSignature("(a,<n>) -> (<n>)"), sum)),
				NewBox("lp_b", MustParseSignature("(b,<n>) -> (<n>)"), sum))
		},
		inputs: ledgerInputs(n, func(i int, r *Record) {
			r.SetTag("n", i).SetField([]string{"a", "b"}[i%2], i)
		}),
		acquired: n + 3*n/2, recycled: 3 * n / 2, disowned: n,
		counters: map[string]int64{"filter.filter#.applied": n / 2,
			"box.lp_a.instances": 1, "box.lp_a.calls": n / 2, "box.lp_a.emitted": n / 2,
			"box.lp_b.instances": 1, "box.lp_b.calls": n / 2, "box.lp_b.emitted": n / 2},
		fusedOnly: map[string]int64{"fused.fused#.records": n / 2, "fused.fused#.applied": n},
		unpinned:  true,
	}, {
		// A record with <n> = v takes v+1 calls, one per stage it passes; the
		// chain unfolds 4 stages deep.
		name: "star",
		net: func() Node {
			return StarDet(NewBox("lx_dec", MustParseSignature("(<n>) -> (<n>) | (<n>,<done>)"),
				func(args []any, out *Emitter) error {
					if v := args[0].(int); v > 0 {
						return out.Out(1, v-1)
					}
					return out.Out(2, 0, 1)
				}), MustParsePattern("{<done>}"))
		},
		inputs:   ledgerInputs(n, func(i int, r *Record) { r.SetTag("n", i%4) }),
		acquired: n + n/4*(1+2+3+4), recycled: n / 4 * (1 + 2 + 3 + 4), disowned: n,
		counters: map[string]int64{"box.lx_dec.instances": 4, "box.lx_dec.calls": n / 4 * 10, "box.lx_dec.emitted": n / 4 * 10},
	}, {
		// A box slow enough for the engine's verdict: with no width given the
		// replicas start in their dispatcher's hands and leave them mid-stream.
		name: "escalating",
		net: func() Node {
			return Split(NewBox("le_slow", MustParseSignature("(<n>) -> (<n>)"),
				func(args []any, out *Emitter) error {
					time.Sleep(3 * boxEscalateAfter)
					return out.Out(1, args[0].(int)+1)
				}), "k")
		},
		inputs:   ledgerInputs(64, func(i int, r *Record) { r.SetTag("n", i).SetTag("k", i%4) }),
		acquired: 2 * 64, recycled: 64, disowned: 64,
		counters:  map[string]int64{"box.le_slow.instances": 4, "box.le_slow.calls": 64, "box.le_slow.emitted": 64},
		escalates: "le_slow",
	}, {
		// Each of the two filters and two boxes releases what it takes and
		// acquires what it hands on; the cell releases the pair it joins and
		// acquires their merger.  The merger leaves first, with the labels of
		// input 0 and <n> = 2·(0+1)+3 times 5.
		name: "hand-over", net: ledgerHandOver,
		inputs: ledgerInputs(n, func(i int, r *Record) {
			r.SetTag("n", i).SetField([]string{"a", "b"}[i%2], i)
		}),
		acquired: 5*n - 1, recycled: 4 * n, disowned: n - 1,
		counters: map[string]int64{"filter.filter#.applied": 2*n - 1, "sync.lh_join.fired": 1,
			"box.lh_slow.instances": 1, "box.lh_slow.calls": n, "box.lh_slow.emitted": n,
			"box.lh_cheap.instances": 1, "box.lh_cheap.calls": n - 1, "box.lh_cheap.emitted": n - 1},
		fusedOnly: map[string]int64{"fused.fused#.records": n, "fused.fused#.applied": 5*n - 2},
		unpinned:  true,
		out: func() (out []string) {
			for seq := 0; seq < n; seq++ {
				if seq != 1 { // joined into seq 0
					out = append(out, fmt.Sprintf("%d %d", seq, (2*(seq+1)+3)*5))
				}
			}
			return out
		}(),
		label:     "n",
		escalates: "lh_slow",
	}, {
		// Every box releases its input and acquires its output.
		name: "stencil", net: ledgerStencil,
		inputs: ledgerInputs(n, func(i int, r *Record) {
			r.SetField("grid", array.FromSlice([]int{stencilSide, stencilSide}, stencilGrid(i)))
		}),
		acquired: 5 * n, recycled: 4 * n, disowned: n,
		counters: map[string]int64{
			"box.ls_smooth1.instances": 1, "box.ls_smooth1.calls": n, "box.ls_smooth1.emitted": n,
			"box.ls_smooth2.instances": 1, "box.ls_smooth2.calls": n, "box.ls_smooth2.emitted": n,
			"box.ls_smooth3.instances": 1, "box.ls_smooth3.calls": n, "box.ls_smooth3.emitted": n,
			"box.ls_energy.instances": 1, "box.ls_energy.calls": n, "box.ls_energy.emitted": n},
		fusedOnly: map[string]int64{"fused.fused#.records": n, "fused.fused#.applied": 4 * n},
		unpinned:  true,
		out: func() (out []string) {
			for seq := 0; seq < n; seq++ {
				out = append(out, fmt.Sprintf("%d %d", seq, stencilEnergy(seq)))
			}
			return out
		}(),
		label: "energy",
	}}
}

// outLines renders out as ledgerCase.out writes it down.
func outLines(t *testing.T, out []*Record, label string) []string {
	lines := make([]string, len(out))
	for i, r := range out {
		lines[i] = fmt.Sprintf("%d %d", tagOf(t, r, "seq"), tagOf(t, r, label))
	}
	return lines
}

var anonSerial = regexp.MustCompile(`#\d+`)

// stageCounters are the counters of a run the figures speak of.
func stageCounters(stats *Stats) map[string]int64 {
	out := map[string]int64{}
	for k, v := range stats.Snapshot() {
		if !strings.HasPrefix(k, "box.") && !strings.HasPrefix(k, "filter.") && !strings.HasPrefix(k, "sync.") && !strings.HasPrefix(k, "fused.") {
			continue
		}
		if strings.HasSuffix(k, ".max") || strings.HasSuffix(k, ".escalated") {
			continue
		}
		out[anonSerial.ReplaceAllString(k, "#")] += v
	}
	return out
}

// pollLedger reads the run's counters and the arena's ledger until stop is
// closed; the ledger's three counters only ever grow.
func pollLedger(t *testing.T, h *Handle, stop <-chan struct{}) *sync.WaitGroup {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := PoolStats()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = h.Stats().Snapshot()
			now := PoolStats()
			if now.Acquired < last.Acquired || now.Recycled < last.Recycled || now.Disowned < last.Disowned {
				t.Errorf("ledger went backwards: %+v then %+v", last, now)
			}
			last = now
			time.Sleep(50 * time.Microsecond)
		}
	}()
	return &wg
}

// runLedger drains one run of net under a polling reader.
func runLedger(t *testing.T, net Node, inputs []*Record, opts ...Option) ([]*Record, *Stats) {
	t.Helper()
	h := compileNet(net).Start(context.Background(), opts...)
	stop := make(chan struct{})
	polled := pollLedger(t, h, stop)
	go h.feed(inputs)
	var out []*Record
	for r := range h.Out() {
		out = append(out, r)
	}
	h.Wait()
	close(stop)
	polled.Wait()
	return out, h.Stats()
}

func TestLedgerExactAtQuiescence(t *testing.T) {
	atLeastProcs(t, 2) // so that W unset has a width to escalate to
	for _, c := range ledgerCases() {
		for _, w := range []int{0, 1, 4} {
			for _, b := range []int{1, 8, 64} {
				t.Run(fmt.Sprintf("%s/W%d_B%d", c.name, w, b), func(t *testing.T) {
					eachCell(t, func(t *testing.T, _ cell) {
						poolLiveSettled(t)
						before := PoolStats()
						out, stats := runLedger(t, c.net(), c.inputs(), WithBoxWorkers(w), WithStreamBatch(b))
						after := PoolStats()
						acq, rec, dis := after.Acquired-before.Acquired, after.Recycled-before.Recycled, after.Disowned-before.Disowned
						if acq != c.acquired || rec != c.recycled || dis != c.disowned {
							t.Errorf("ledger: acquired %d recycled %d disowned %d, want %d %d %d",
								acq, rec, dis, c.acquired, c.recycled, c.disowned)
						}
						if live := after.Live() - before.Live(); live != 0 {
							t.Errorf("Live() moved by %d over a drained run", live)
						}
						want, got := maps.Clone(c.counters), stageCounters(stats)
						switch {
						case w == 4 && c.unpinned:
						case w == 0 && c.escalates != "":
							maps.DeleteFunc(got, func(k string, _ int64) bool { return strings.HasPrefix(k, "fused.") })
						default:
							maps.Copy(want, c.fusedOnly)
						}
						if !maps.Equal(got, want) {
							t.Errorf("counters:\n got %v\nwant %v", got, want)
						}
						if c.escalates != "" && w == 0 && stats.Counter("box."+c.escalates+".escalated") == 0 {
							t.Errorf("the slow box never handed over")
						}
						if c.out != nil {
							if got := outLines(t, out, c.label); !slices.Equal(got, c.out) {
								t.Errorf("output:\n got %v\nwant %v", got, c.out)
							}
						}
					})
				})
			}
		}
	}
}

// gatedChain is filter .. tap .. box .. filter with the box parking its third
// call until gate closes: a place to cancel in the middle of a frame.
func gatedChain(entered chan<- struct{}, gate <-chan struct{}) Node {
	calls := 0
	return Serial(
		MustFilter("{<n>} -> {<n>=<n>+1}"),
		Observe("lg_tap", nil),
		NewBoxConcurrent("lg_gate", MustParseSignature("(<n>) -> (<n>)"), func(args []any, out *Emitter) error {
			if calls++; calls == 3 {
				close(entered)
				<-gate
			}
			return out.Out(1, args[0].(int))
		}, 1),
		MustFilter("{<n>} -> {<n>=<n>*2}"),
	)
}

// TestLedgerAfterCancelMidFrame: the run is cancelled while a box holds the
// third record of an eight-record frame — on a goroutine of its own and, as a
// split replica, in its dispatcher's hands.  Whatever was acquired and
// released up to there is in the ledger once the run has unwound.
func TestLedgerAfterCancelMidFrame(t *testing.T) {
	eachCell(t, func(t *testing.T, _ cell) {
		for _, replica := range []bool{false, true} {
			goroutines, live := goroutineCount(), poolLiveSettled(t)
			entered, gate := make(chan struct{}), make(chan struct{})
			net := gatedChain(entered, gate)
			if replica {
				net = Split(net, "k")
			}
			h := compileNet(net).Start(context.Background(), WithStreamBatch(8))
			stop := make(chan struct{})
			polled := pollLedger(t, h, stop)
			frame := pooledSeqInputs(8, func(i int, r *Record) { r.SetTag("n", i).SetTag("k", 0) })
			if _, err := h.SendBatch(context.Background(), frame); err != nil {
				t.Fatal(err)
			}
			<-entered
			h.Cancel()
			close(gate)
			h.Wait()
			close(stop)
			polled.Wait()
			waitForGoroutines(t, goroutines)
			waitPoolLive(t, live)
		}
	})
}

// TestLedgerAfterBoxPanic: a panicking call loses its record and nothing
// else; the figures are those of a run in which every seventh record ends at
// the box.
func TestLedgerAfterBoxPanic(t *testing.T) {
	const n, lost = ledgerN, (ledgerN + 6) / 7
	for _, w := range []int{0, 1, 4} {
		eachCell(t, func(t *testing.T, _ cell) {
			poolLiveSettled(t)
			net := Serial(
				MustFilter("{<n>} -> {<n>=<n>+1}"),
				NewBox("lq_panic", MustParseSignature("(<n>,<seq>) -> (<n>)"), func(args []any, out *Emitter) error {
					if args[1].(int)%7 == 0 {
						panic("every seventh")
					}
					return out.Out(1, args[0].(int))
				}),
				MustFilter("{<n>} -> {<n>=<n>*2}"),
			)
			before := PoolStats()
			inputs := pooledSeqInputs(n, func(i int, r *Record) { r.SetTag("n", i) })
			out, stats := runLedger(t, net, inputs, WithBoxWorkers(w), WithErrorHandler(func(error) {}))
			after := PoolStats()
			acq, rec, dis := after.Acquired-before.Acquired, after.Recycled-before.Recycled, after.Disowned-before.Disowned
			if len(out) != n-lost || acq != 2*n+2*(n-lost) || rec != 2*n+(n-lost) || dis != n-lost {
				t.Errorf("W=%d: %d out, acquired %d recycled %d disowned %d; want %d, %d %d %d",
					w, len(out), acq, rec, dis, n-lost, 2*n+2*(n-lost), 2*n+(n-lost), n-lost)
			}
			if live := after.Live() - before.Live(); live != 0 {
				t.Errorf("W=%d: Live() moved by %d", w, live)
			}
			want := map[string]int64{"filter.filter#.applied": n + (n - lost), "box.lq_panic.instances": 1,
				"box.lq_panic.calls": n, "box.lq_panic.emitted": n - lost, "box.lq_panic.panics": lost}
			if w != 4 { // the three stages are one segment, and a call that panics is a step applied
				want["fused.fused#.records"], want["fused.fused#.applied"] = n, 3*n-lost
			}
			if got := stageCounters(stats); !maps.Equal(got, want) {
				t.Errorf("W=%d: counters:\n got %v\nwant %v", w, got, want)
			}
		})
	}
}
