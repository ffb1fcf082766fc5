package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"time"

	"repro/sac"
)

// Arithmetic the reported numbers rest on, on cases small enough to check by
// hand.

func TestMedianAndPercentile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{9, 1, 8, 2, 7, 3, 6, 4, 5}, 5}, // nine slices
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	lat := make([]int64, 100)
	for i := range lat {
		lat[i] = int64(100 - i) // 1..100, unsorted
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentileNs(lat, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentileNs([]int64{7, 5, 6}, 99); got != 7 {
		t.Errorf("p99 of three samples = %d, want the largest, 7", got)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// returns, because that is what the driver computes.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 3, 7, 1, 9, 2, 8, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{100, 102, 101, 99, 100, 103, 98, 100, 101, 100}, 99.75, 100, 101.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{100, 102, 101, 99, 100, 103, 98, 100, 101, 100}); got != 0.015 {
		t.Errorf("spread = %v, want 0.015", got)
	}
	if got := worsening(100, 90, "higher"); got != 0.1 {
		t.Errorf("a higher-is-better metric falling 100 -> 90 worsened by %v, want 0.1", got)
	}
	if got := worsening(100, 90, "lower"); got != -0.1 {
		t.Errorf("a lower-is-better metric falling 100 -> 90 worsened by %v, want -0.1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "encode", Start: 0, End: 10, Parent: 0},
		{Name: "post", Start: 10, End: 80, Parent: 0},
		{Name: "handler", Start: 20, End: 70, Parent: 2},
		// two children that overlap each other and the end of their parent
		{Name: "open", Start: 30, End: 50, Parent: 3},
		{Name: "drain", Start: 40, End: 90, Parent: 3},
		{Name: "request", Start: 100, End: 130, Parent: -1},
	}
	total, self := spanTotals(spans)
	wantTotal := map[string]int64{"request": 130, "encode": 10, "post": 70, "handler": 50, "open": 20, "drain": 50}
	wantSelf := map[string]int64{
		"request": 20 + 30, // 100 - (10 + 70), plus the childless second request
		"encode":  10,
		"post":    20,      // 70 - 50
		"handler": 50 - 40, // children cover [30, 70) of [20, 70)
		"open":    20,
		"drain":   50,
	}
	if !reflect.DeepEqual(total, wantTotal) {
		t.Errorf("totals = %v, want %v", total, wantTotal)
	}
	if !reflect.DeepEqual(self, wantSelf) {
		t.Errorf("self times = %v, want %v", self, wantSelf)
	}

	var none *tracer
	none.end(none.begin("ignored", -1, 0)) // a nil tracer records nothing and does not crash
	a, b := newTracer(), newTracer()
	root := a.begin("a", -1, 0)
	a.end(root)
	child := b.begin("b.child", b.begin("b", -1, 1), 1)
	b.end(child)
	a.absorb(b)
	got := a.snapshot()
	if len(got) != 3 || got[1].Parent != -1 || got[2].Parent != 1 {
		t.Errorf("absorbed spans %+v: parents must be rebased onto the absorbing tracer", got)
	}
}

// The reference kernels leave the process as they found it, and the machine's
// slowness around a piece of work is the mean of the readings on either side.
func TestReferenceKernels(t *testing.T) {
	base := takeHygiene()
	g := newGauge()
	before := g.last
	got := g.around(func() {})
	if !(before > 0) || !(g.last > 0) || math.IsInf(before+g.last, 0) || got != (before+g.last)/2 {
		t.Errorf("readings %v and %v, slowness around the work %v", before, g.last, got)
	}
	if err := base.check(); err != nil {
		t.Error(err)
	}
}

// The same seed must give byte-identical inputs, another seed other inputs.
func TestSeedsFixTheInputs(t *testing.T) {
	inputs := func(seed int64) map[string]any {
		web := newWebTraffic(seed, 512)
		search, err := newSearch(seed, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		var boards []string
		for _, b := range search.puzzles {
			boards = append(boards, b.String())
		}
		st, err := newStencil(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		var grids [][]int64
		for _, g := range st.grids {
			grids = append(grids, g.Data())
		}
		var bodies [][]byte
		for id := 0; id < 8; id++ {
			bodies = append(bodies, appendRunBody(nil, id, web.url(id)))
		}
		return map[string]any{
			"webpipe urls": web.urls, "webpipe order": web.seq, "webpipe bodies": bodies,
			"filter_chain": chainInputs(seed, 512), "sudoku": boards, "stencil": grids,
		}
	}
	a, b, other := inputs(7), inputs(7), inputs(8)
	for name := range a {
		if !reflect.DeepEqual(a[name], b[name]) {
			t.Errorf("%s: seed 7 gave two different inputs", name)
		}
		if reflect.DeepEqual(a[name], other[name]) {
			t.Errorf("%s: seeds 7 and 8 gave the same input", name)
		}
	}
}

// The counters later changes are allowed to rest a claim on must repeat
// exactly from run to run.
func TestCountersRepeatExactly(t *testing.T) {
	counters := func(w *workload, keys ...[2]string) []int64 {
		inst, err := w.setup(3, w.callOps)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.close()
		out := inst.planRun(w.callOps, nil)
		if out.failed != 0 {
			t.Fatalf("%s: %d operations failed", w.name, out.failed)
		}
		var got []int64
		for _, k := range keys {
			got = append(got, sumKeys(out.stats, k[0], k[1]))
		}
		return got
	}
	for _, c := range []struct {
		w    *workload
		keys [][2]string
		want []int64
	}{
		{filterChain, [][2]string{{"box.", ".calls"}}, []int64{5 * batchSize}}, // 5 of the 16 stages are boxes
		{wavefrontJoin, [][2]string{{"sync.", ".fired"}, {"star.", ".replicas"}},
			[]int64{(waveN - 1) * (waveN - 1), 2*waveN - 1}},
		{webpipeStream, [][2]string{{"box.", ".calls"}}, []int64{3 * batchSize}}, // classify, one handler, render
	} {
		a, b := counters(c.w, c.keys...), counters(c.w, c.keys...)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c.want) {
			t.Errorf("%s: counters %v then %v, want %v both times", c.w.name, a, b, c.want)
		}
	}

	// allocs_per_op on filter_chain is a count too: a whole number of
	// allocations per record, and beside it what comes per batch, per frame
	// or per slice and not per record (frame slabs, the slice's goroutines
	// and latency samples, the runtime's own allocations), which is far below
	// a twentieth of an allocation per record and the only part free to
	// differ.  The count itself must be exactly equal.
	if raceEnabled {
		return
	}
	allocs := func() float64 {
		res, err := measure(filterChain, 3, 40*batchSize, 1, 3, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return res.metrics.get("allocs_per_op")
	}
	a, b := allocs(), allocs()
	t.Logf("allocs_per_op on filter_chain: %v then %v", a, b)
	if math.Round(a) != math.Round(b) || math.Abs(a-math.Round(a)) > 0.05 || math.Abs(b-math.Round(b)) > 0.05 {
		t.Errorf("allocs_per_op on filter_chain: %v then %v, want the same whole count both times and a remainder below 0.05", a, b)
	}
}

// A small run of every workload (three slices of a thirtieth): the hook that
// keeps the benchmark running as the code it measures changes.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range allWorkloads {
		res, err := measure(w, 1, w.opsFor(refSeconds/30.0, w.sliceOps), 1, 3, time.Minute)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, res.failed, res.attempted)
		}
		if miss := res.metrics.missing(); len(miss) > 0 {
			t.Errorf("%s: end-to-end metrics not reported: %v", w.name, miss)
		}
		for name, v := range res.metrics.values {
			// CPU time is booked in ticks, so a slice this short may read none.
			if !(v.Value > 0 || name == "cpu_s_per_kop" && v.Value == 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.name, name, v.Value)
			}
		}
	}
}

// A 1/100-size traced run: every per-layer metric is measured, the hygiene
// checks pass and the spans are written.
func TestSmokeTracedRun(t *testing.T) {
	t.Chdir(t.TempDir())
	res, err := runTraced(webpipeHTTP, 1, refSeconds/100.0, currentEnvironment(), map[string]metric{})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Errorf("%d of %d operations failed", res.failed, res.attempted)
	}
	for _, must := range []struct {
		name string
		want float64
	}{
		{"core.arena.live_delta", 0},
		{"service.engine.replicas_after", 0},
		{"core.box.calls_per_op", 3},
		{"proc.goroutines_after", float64(runtime.NumGoroutine())},
	} {
		if got := res.metrics.get(must.name); got != must.want {
			t.Errorf("%s = %v, want %v", must.name, got, must.want)
		}
	}
	raw, err := os.ReadFile(outDir + "/spans-webpipe_http.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &file); err != nil || len(file.Spans) == 0 {
		t.Fatalf("spans file: %d spans, %v", len(file.Spans), err)
	}
	total, _ := spanTotals(file.Spans)
	for _, name := range []string{"client.request", "client.post", "service.handler", "service.session.open",
		"service.session.drain", "plan.run_all", "boxes.reference"} {
		if total[name] <= 0 {
			t.Errorf("no time recorded under span %q", name)
		}
	}
}

// The stencil boxes must agree with the plain-loop reference at any width.
func TestStencilWithLoopsMatchReference(t *testing.T) {
	s, err := newStencil(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pool := range []*sac.Pool{seqPool, sac.NewPool(3)} {
		g := s.grids[0]
		for k := 0; k < smoothings; k++ {
			g = smooth(pool, g)
		}
		if got := energy(pool, g); got != s.want[0] {
			t.Errorf("pool width %d: energy %d, reference %d", pool.Width(), got, s.want[0])
		}
	}
}

// BENCHMARK.json and spec.go name the same metrics and workloads, inside the
// limits the driver sets.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, slice sizes are written for %d", file.RunSeconds, refSeconds)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) || !reflect.DeepEqual(file.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("command %v, paths %v", file.Command, file.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(file.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(file.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		f := file.Workloads[i]
		if f.Name != w.name || f.Why != w.why || len(w.why) > 200 || !name.MatchString(w.name) {
			t.Errorf("workload %d: %q / %q in BENCHMARK.json, %q / %q (%d characters) in the benchmark",
				i, f.Name, f.Why, w.name, w.why, len(w.why))
		}
	}
	var haveSetup bool
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(file.EndToEnd), len(endToEnd))
	}
	for i, s := range endToEnd {
		f := file.EndToEnd[i]
		if f.Name != s.name || f.Unit != s.unit || f.Better != s.better || f.Bound != s.bound {
			t.Errorf("end_to_end[%d] = %+v, spec.go has %+v", i, f, s)
		}
		if !name.MatchString(s.name) || !unit.MatchString(s.unit) || s.bound <= 0 || s.bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v is outside the driver's limits", i, s)
		}
		haveSetup = haveSetup || (s.name == "setup_s" && s.unit == "s" && s.better == "lower")
	}
	if !haveSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(file.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go", len(file.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, s := range perLayer {
		f := file.PerLayer[i]
		if f.Name != s.name || f.Unit != s.unit || f.Better != s.better {
			t.Errorf("per_layer[%d] = %+v, spec.go has %+v", i, f, s)
		}
		if !name.MatchString(s.name) || !unit.MatchString(s.unit) || seen[s.name] {
			t.Errorf("per_layer[%d] = %+v is outside the driver's limits or named twice", i, s)
		}
		seen[s.name] = true
	}
}
