package core

import (
	"context"
	"fmt"
	"maps"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// The arena's ledger and the per-record stage counters are exact where they
// are read: after a drained run — at every (W, B), on both plans — their
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
	// box.*, filter.* and fused.* counters (high-water marks and the
	// engine's escalation count left out), summed over nodes of one name with
	// the serial numbers of anonymous nodes dropped; fusedOnly those only the
	// fused plan reports.
	acquired, recycled, disowned int64
	counters, fusedOnly          map[string]int64
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
		counters: map[string]int64{"box.ls_join.instances": n / 2, "box.ls_join.calls": n / 2, "box.ls_join.emitted": n / 2},
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
		counters: map[string]int64{"box.le_slow.instances": 4, "box.le_slow.calls": 64, "box.le_slow.emitted": 64},
	}}
}

var anonSerial = regexp.MustCompile(`#\d+`)

// stageCounters are the counters of a run the figures speak of.
func stageCounters(stats *Stats) map[string]int64 {
	out := map[string]int64{}
	for k, v := range stats.Snapshot() {
		if !strings.HasPrefix(k, "box.") && !strings.HasPrefix(k, "filter.") && !strings.HasPrefix(k, "fused.") {
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
func runLedger(t *testing.T, m execMode, net Node, inputs []*Record, opts ...Option) ([]*Record, *Stats) {
	t.Helper()
	h := m.Start(context.Background(), net, opts...)
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
					bothPlans(t, func(t *testing.T, m execMode) {
						poolLiveSettled(t)
						before := PoolStats()
						_, stats := runLedger(t, m, c.net(), c.inputs(), WithBoxWorkers(w), WithStreamBatch(b))
						after := PoolStats()
						acq, rec, dis := after.Acquired-before.Acquired, after.Recycled-before.Recycled, after.Disowned-before.Disowned
						if acq != c.acquired || rec != c.recycled || dis != c.disowned {
							t.Errorf("ledger: acquired %d recycled %d disowned %d, want %d %d %d",
								acq, rec, dis, c.acquired, c.recycled, c.disowned)
						}
						if live := after.Live() - before.Live(); live != 0 {
							t.Errorf("Live() moved by %d over a drained run", live)
						}
						want := maps.Clone(c.counters)
						if m.fuse {
							maps.Copy(want, c.fusedOnly)
						}
						if got := stageCounters(stats); !maps.Equal(got, want) {
							t.Errorf("counters:\n got %v\nwant %v", got, want)
						}
						if c.name == "escalating" && w == 0 && stats.Counter("box.le_slow.escalated") == 0 {
							t.Errorf("the slow box never handed over")
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
	bothPlans(t, func(t *testing.T, m execMode) {
		for _, replica := range []bool{false, true} {
			goroutines, live := goroutineCount(), poolLiveSettled(t)
			entered, gate := make(chan struct{}), make(chan struct{})
			net := gatedChain(entered, gate)
			if replica {
				net = Split(net, "k")
			}
			h := m.Start(context.Background(), net, WithStreamBatch(8))
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
		bothPlans(t, func(t *testing.T, m execMode) {
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
			out, stats := runLedger(t, m, net, inputs, WithBoxWorkers(w), WithErrorHandler(func(error) {}))
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
			if got := stageCounters(stats); !maps.Equal(got, want) {
				t.Errorf("W=%d: counters:\n got %v\nwant %v", w, got, want)
			}
		})
	}
}
