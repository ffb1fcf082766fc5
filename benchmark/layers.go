package main

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/snet"
)

// reps is how often a traced run repeats a timed rung; it reports the median.
const reps = 3

// timeMedian runs f n times and returns the median duration.
func timeMedian(n int, f func()) time.Duration {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}

func usPerOp(d time.Duration, ops int) float64 { return float64(d) / 1e3 / float64(ops) }

// traced is the state of one traced run: what the layer measurements share.
type traced struct {
	seed  int64
	scale float64 // run length over refSeconds; sizes below are for scale 1
	tr    *tracer
	m     *metrics

	attempted, failed int
}

// n scales an operation count to the run length, keeping at least one.
func (c *traced) n(base int) int { return max(int(float64(base)*c.scale+0.5), 1) }

// count books one checked operation.
func (c *traced) count(ok bool) {
	c.attempted++
	if !ok {
		c.failed++
	}
}

// add books a batch of checked operations.
func (c *traced) add(attempted, failed int) {
	c.attempted += attempted
	c.failed += failed
}

// runTraced is a traced run: the workload replayed from one client with
// spans around every public call, the same replay without them (the
// difference is the tracing overhead), the plan under the options that
// select between the core's paths, and the probes of the single layers.  The
// probes do not depend on the workload: the first traced run of an
// invocation runs them and leaves their metrics in probed for the others.
// It reports the per-layer metrics only.
func runTraced(w *workload, seed int64, seconds float64, env environment, probed map[string]metric) (*result, error) {
	c := &traced{seed: seed, scale: seconds / refSeconds, tr: newTracer(), m: newMetrics(perLayer)}
	base := takeHygiene()

	inst, attempted, failed, err := setUp(w, seed, w.opsFor(seconds, w.sliceOps))
	if err != nil {
		return nil, err
	}
	c.add(attempted, failed)
	c.workloadLayers(w, inst)
	if err := teardown(inst, base); err != nil {
		return nil, err
	}

	if len(probed) == 0 {
		own := c.m
		c.m = newMetrics(perLayer)
		for _, probe := range []func(*traced) error{
			probeFusion, probeService, probeArrays, probeSudoku, probeLang,
		} {
			if err := probe(c); err != nil {
				return nil, err
			}
			if err := base.check(); err != nil {
				return nil, err
			}
		}
		maps.Copy(probed, c.m.values)
		c.m = own
	}
	maps.Copy(c.m.values, probed)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // peak RSS reads 0 if the call fails
	c.m.set("proc.peak_rss_mb", float64(ru.Maxrss)/1024)
	c.m.set("proc.gc_cycles", float64(ms.NumGC))
	c.m.set("proc.gc_pause_ms", float64(ms.PauseTotalNs)/1e6)
	c.m.set("proc.goroutines_after", float64(runtime.NumGoroutine()))

	if miss := c.m.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("per-layer metrics not measured: %s", strings.Join(miss, ", "))
	}
	res := &result{attempted: c.attempted, failed: c.failed, metrics: c.m}
	return res, writeSpans(w, env, c.tr.snapshot())
}

// workloadLayers measures the layers the workload itself runs through.
func (c *traced) workloadLayers(w *workload, inst instance) {
	m := c.m
	ops := w.round(c.n(w.traceOps))
	nproc := runtime.GOMAXPROCS(0)
	run := func(tr *tracer, opts ...snet.Option) (time.Duration, planOut) {
		var out planOut
		d := timeMedian(reps, func() {
			out = inst.planRun(ops, tr, opts...)
			c.add(ops, out.failed)
		})
		return d, out
	}
	inst.planRun(w.callOps, nil) // warm the plan rung

	// Bare compute, then the plan around it: the difference is coordination.
	bare := usPerOp(timeMedian(reps, func() { inst.reference(ops) }), ops)
	var m0, m1 runtime.MemStats
	pool0 := snet.PoolStats()
	runtime.ReadMemStats(&m0)
	planTime, out := run(nil)
	runtime.ReadMemStats(&m1)
	pool1 := snet.PoolStats()
	plan := usPerOp(planTime, ops)
	m.set("boxes.us_per_op", bare)
	m.set("coord.overhead_x", plan/bare)
	m.set("core.plan.us_per_op", plan)
	m.set("core.plan.self_us_per_op", plan-bare)
	m.set("core.plan.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(reps*ops))
	m.set("proc.bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(reps*ops))

	// The record arena's ledger over the same runs.
	m.set("core.arena.live_delta", float64(pool1.Live()-pool0.Live()))
	m.set("core.arena.recycled_share", share(pool1.Recycled-pool0.Recycled, pool1.Acquired-pool0.Acquired))
	m.set("core.arena.disowned_per_op", float64(pool1.Disowned-pool0.Disowned)/float64(reps*ops))

	// Counters of the last run: they repeat exactly from run to run.
	st, per := out.stats, float64(out.statOps)
	m.set("core.box.calls_per_op", float64(sumKeys(st, "box.", ".calls"))/per)
	m.set("core.stream.frames_per_record", share(st["stream.frames"], st["stream.records"]))
	m.set("core.stream.records_per_op", float64(st["stream.records"])/per)
	m.set("core.stream.frame_hwm", float64(st["stream.frame.hwm.max"]))
	m.set("core.sync.fired_per_op", float64(sumKeys(st, "sync.", ".fired"))/per)
	m.set("core.split.replicas", float64(sumKeys(st, "split.", ".replicas")))
	m.set("core.split.width_max", float64(maxKeys(st, "split.", ".width.max")))
	m.set("core.star.replicas", float64(sumKeys(st, "star.", ".replicas")))
	m.set("core.star.depth_max", float64(maxKeys(st, "star.", ".depth.max")))

	// The same replay with spans on.
	tracedTime, _ := run(c.tr)
	m.set("trace.overhead_share", float64(tracedTime)/float64(planTime)-1)

	// The options that select between the core's paths: sequential box loop
	// against the concurrent engine, unbatched against large frames.
	for _, o := range []struct {
		name string
		opt  snet.Option
	}{
		{"core.box.w1_us_per_op", snet.WithBoxWorkers(1)},
		{"core.box.wn_us_per_op", snet.WithBoxWorkers(nproc)},
		{"core.stream.b1_us_per_op", snet.WithStreamBatch(1)},
		{"core.stream.b64_us_per_op", snet.WithStreamBatch(64)},
	} {
		d, _ := run(nil, o.opt)
		m.set(o.name, usPerOp(d, ops))
	}

	// The measured loop itself: its latency tail, and its throughput on one
	// processor, the single-threaded baseline.
	loopOps := w.round(c.n(w.sliceOps))
	failed, lat := inst.slice(0, loopOps)
	c.add(loopOps, failed)
	m.set("loop.op_p99_ms", float64(percentileNs(lat, 99))/1e6)
	if s, ok := inst.(interface{ lastTransit() []int64 }); ok {
		lat = s.lastTransit() // a stream: how long records spent inside
	}
	m.set("loop.transit_p50_ms", float64(percentileNs(lat, 50))/1e6)
	prev := runtime.GOMAXPROCS(1)
	t0 := time.Now()
	failed, _ = inst.slice(0, loopOps)
	m.set("core.p1_ops_per_s", float64(loopOps)/time.Since(t0).Seconds())
	runtime.GOMAXPROCS(prev)
	c.add(loopOps, failed)

	// The set-up path: compile, instantiate, verify.
	p := inst.plan()
	m.set("core.compile.ms", float64(timeMedian(5, func() {
		_, err := snet.Compile(inst.build())
		c.count(err == nil)
	}))/1e6)
	m.set("core.plan.start_us", float64(timeMedian(c.n(200), func() {
		closeHandle(p.Start(context.Background()))
	}))/1e3)
	m.set("core.fuse.groups", float64(len(p.FusionGroups())))
	var rep *analysis.Report
	m.set("analysis.verify_ms", float64(timeMedian(5, func() { rep = analysis.Analyze(p) }))/1e6)
	bound := -1.0 // no finite bound
	if rep.Bound != nil && rep.Bound.Finite {
		bound = float64(rep.Bound.Total)
	}
	m.set("analysis.bound_records", bound)
}

// share is part/whole, 0 when there is no whole.
func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
