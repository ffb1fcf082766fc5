package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStatsConcurrentExact: writers by name, writers through held cells,
// readers and a merging aggregator all at once; every total is exact
// afterwards and nothing the readers saw was torn.
func TestStatsConcurrentExact(t *testing.T) {
	const writers, rounds, keys = 8, 2000, 5
	s, agg := NewStats(), NewStats()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := s.Snapshot()
			for _, k := range s.Keys() {
				if snap[k] < 0 {
					t.Errorf("counter %s went negative: %d", k, snap[k])
				}
			}
			if got := s.SumPrefix("k."); got < 0 || got > 2*writers*rounds {
				t.Errorf("SumPrefix out of range: %d", got)
			}
			agg.Merge(s)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var held *atomic.Int64
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("k.%d", (w+i)%keys) // overlapping across writers
				s.Add(key, 1)
				s.held(&held, fmt.Sprintf("k.%d", w%keys)).Add(1)
				s.SetMax("hw", int64(w*rounds+i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := s.SumPrefix("k."); got != 2*writers*rounds {
		t.Errorf("total = %d, want %d", got, 2*writers*rounds)
	}
	if got := s.Max("hw"); got != writers*rounds-1 {
		t.Errorf("high-water mark = %d, want %d", got, writers*rounds-1)
	}
	if got := len(s.Keys()); got != keys {
		t.Errorf("%d counter keys, want %d: %v", got, keys, s.Keys())
	}
	if agg.Max("hw") > s.Max("hw") || agg.SumPrefix("k.") == 0 {
		t.Errorf("aggregate did not follow: max %d, sum %d", agg.Max("hw"), agg.SumPrefix("k."))
	}
}

// TestStatsMergeBothWays: two collectors merging into each other at the same
// time must not deadlock — Merge never holds both locks.
func TestStatsMergeBothWays(t *testing.T) {
	a, b := NewStats(), NewStats()
	a.Add("x", 1)
	b.Add("y", 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for _, pair := range [][2]*Stats{{a, b}, {b, a}} {
			wg.Add(1)
			go func(dst, src *Stats) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					dst.Merge(src)
				}
			}(pair[0], pair[1])
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Merge both ways deadlocked")
	}
}

// TestStatsReadsCreateNothing: asking after a key nobody counted answers 0
// and leaves the reported key set alone, and a maximum shows once it is
// above zero.
func TestStatsReadsCreateNothing(t *testing.T) {
	s := NewStats()
	s.Add("seen", 2)
	s.Add("gauge", 1)
	s.Add("gauge", -1)
	s.SetMax("never.raised", 0)
	s.SetMax("raised", 3)
	if s.Counter("never.seen") != 0 || s.Max("never.seen") != 0 {
		t.Error("an unknown key must read 0")
	}
	if got, want := s.Keys(), []string{"gauge", "seen"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Keys() = %v, want %v", got, want)
	}
	want := map[string]int64{"seen": 2, "gauge": 0, "raised.max": 3}
	if got := s.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("Snapshot() = %v, want %v", got, want)
	}
}

// TestStatsCountingAllocatesNothing: a count on a key that exists — by name
// or through a held cell — allocates nothing.
func TestStatsCountingAllocatesNothing(t *testing.T) {
	s := NewStats()
	var held *atomic.Int64
	s.held(&held, "box.b.calls").Add(1)
	s.SetMax("box.b.inflight", 1)
	if n := testing.AllocsPerRun(100, func() { s.held(&held, "box.b.calls").Add(1) }); n != 0 {
		t.Errorf("held cell Add: %v allocs", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.Add("box.b.calls", 1); s.SetMax("box.b.inflight", 2) }); n != 0 {
		t.Errorf("Stats.Add/SetMax on existing keys: %v allocs", n)
	}
	// AllocsPerRun(100, f) calls f 101 times.
	if got := s.Counter("box.b.calls"); got != 1+2*101 {
		t.Errorf("calls = %d, want %d", got, 1+2*101)
	}
}

// TestPerRecordCountsTakeNoStatsLock: once every instance of a run has
// counted its first record, counting a record takes no run-wide lock — the
// extra-functional layer does not serialise the functional one.  The plan
// holds one of everything that counts per record: a fused segment (tap,
// filter, pinned-W=1 box, box of default width), a box of width 4 and a
// two-branch parallel of lone filters.  The test goroutine holds the
// collector's mutex while 1 000 records go in and come out.
func TestPerRecordCountsTakeNoStatsLock(t *testing.T) {
	inc := func(name string, workers int) Node {
		return NewBoxConcurrent(name, MustParseSignature("(<n>) -> (<n>)"),
			func(args []any, out *Emitter) error { return out.Out(1, args[0].(int)+1) }, workers)
	}
	left, right := MustFilter("{<n>} -> {<n>=<n>+1}"), MustFilter("{<n>} -> {<n>=<n>+2}")
	par := Parallel(left, right)
	plan := MustCompile(Serial(
		Observe("nl_tap", nil), MustFilter("{<n>} -> {<n>=<n>*2}"), inc("nl_seq", 1),
		inc("nl_auto", 0), inc("nl_w4", 4), par),
		WithInputType(RecType{NewVariant(Tag("n"))}))
	groups := plan.FusionGroups()
	if len(groups) != 1 || len(groups[0].Members) != 4 {
		t.Fatalf("want one fused segment of four, got %v", groups)
	}

	h := plan.Start(context.Background())
	defer h.Cancel()
	pass := func(n int) error {
		errc := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				if err := h.Send(NewRecord().SetTag("n", i)); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
		deadline := time.After(5 * time.Second)
		for i := 0; i < n; i++ {
			select {
			case <-h.Out():
			case <-deadline:
				return fmt.Errorf("%d of %d records came out before the deadline", i, n)
			}
		}
		return <-errc
	}
	const warm, locked = 64, 1000
	if err := pass(warm); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	st := h.Stats()
	st.mu.Lock()
	err := pass(locked)
	st.mu.Unlock()
	if err != nil {
		t.Fatalf("with the collector's lock held: %v", err)
	}
	h.Close()
	for range h.Out() {
	}
	h.Wait()

	const n = warm + locked
	seg := "fused." + groups[0].Name
	for key, want := range map[string]int64{
		seg + ".records": n, seg + ".applied": 4 * n,
		"box.nl_seq.calls": n, "box.nl_seq.emitted": n,
		"box.nl_auto.calls": n, "box.nl_auto.emitted": n,
		"box.nl_w4.calls": n, "box.nl_w4.emitted": n,
		"parallel." + par.name() + ".branch0": n / 2, "parallel." + par.name() + ".branch1": n / 2,
		"filter." + left.name() + ".applied": n / 2, "filter." + right.name() + ".applied": n / 2,
	} {
		if got := st.Counter(key); got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	if got := st.SumPrefix("filter."); got != 2*n {
		t.Errorf("filter applications = %d, want %d", got, 2*n)
	}
	if got := st.Max("box.nl_w4.inflight"); got < 1 || got > 4 {
		t.Errorf("box.nl_w4.inflight high-water mark = %d, want 1..4", got)
	}
}

// TestNewReplicasTakeNoStatsLock: once a split instance has made its first
// replica, making another takes no run-wide lock either — the replica gauge
// and width, the box's instances and the synchrocell's firings are cells and
// tallies the instance holds.  The test goroutine holds the collector's mutex
// while pairs for 200 new keys go into Split(Serial(Sync({a},{b}), box), "k"),
// and every join must come out.
func TestNewReplicasTakeNoStatsLock(t *testing.T) {
	box := NewBox("nr_box", MustParseSignature("(<k>) -> (<k>)"),
		func(args []any, out *Emitter) error { return out.Out(1, args[0]) })
	plan := MustCompile(NamedSplit("nr", Serial(
		NamedSync("nr_join", MustParsePattern("{a}"), MustParsePattern("{b}")), box), "k"))
	h := plan.Start(context.Background())
	defer h.Cancel()
	pass := func(from, to int) error {
		errc := make(chan error, 1)
		go func() {
			for k := from; k < to; k++ {
				for _, f := range []string{"a", "b"} {
					if err := h.Send(NewRecord().SetField(f, k).SetTag("k", k)); err != nil {
						errc <- err
						return
					}
				}
			}
			errc <- nil
		}()
		deadline := time.After(5 * time.Second)
		for k := from; k < to; k++ {
			select {
			case <-h.Out():
			case <-deadline:
				return fmt.Errorf("%d of %d joins came out before the deadline", k-from, to-from)
			}
		}
		return <-errc
	}
	const warm, locked = 8, 200
	if err := pass(0, warm); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	st := h.Stats()
	st.mu.Lock()
	err := pass(warm, warm+locked)
	st.mu.Unlock()
	if err != nil {
		t.Fatalf("with the collector's lock held: %v", err)
	}
	h.Close()
	for range h.Out() {
	}
	h.Wait()

	const n = warm + locked
	for key, want := range map[string]int64{
		"split.nr.replicas": n, "sync.nr_join.fired": n, "sync.nr_join.starved": 0,
		"box.nr_box.instances": n, "box.nr_box.calls": n,
	} {
		if got := st.Counter(key); got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	if got := st.Max("split.nr.width"); got != n {
		t.Errorf("split.nr.width.max = %d, want %d", got, n)
	}
}
