package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/snet"
)

// refSeconds is the run length the slice sizes below are written for: the
// slices of sliceOps operations together take about refSeconds on the 2-core
// machine the sizes were fixed on.  --seconds scales every slice
// proportionally.
const refSeconds = 12

// slices is the number of measured slices of a run.  They are many and short
// (about 0.4 s) because each is put beside the readings of the machine's
// speed taken just before and after it (reference.go), and because a timing
// is the median over them.
const slices = 31

// A run sets the workload up at least minSetups times, and again while the
// set-ups together have taken less than a quarter of --seconds, at most
// maxSetups times; setup_s is their median.  A cheap set-up is the unsteadier
// one, and gets the more samples.
const (
	minSetups = 5
	maxSetups = 9
)

// batchSize is the SendBatch size of the streaming workloads.
const batchSize = 256

// workload is one named input set.  Its sizes are part of the benchmark's
// definition: a later change is measured at the same sizes.
type workload struct {
	name string
	why  string
	// op names the operation ops_per_s counts.
	op string
	// callOps is the number of operations one closed-loop call carries
	// (one request, one RunAll, one SendBatch); slice sizes are rounded to
	// a multiple of it.
	callOps int
	// sliceOps is the operation count of one slice at refSeconds.
	sliceOps int
	// traceOps is the operation count of one c=1 replay in a traced run.
	traceOps int
	// setup builds what the measured loop needs — nets compiled, corpus
	// generated, server listening — for slices of at most maxOps
	// operations.  It does not warm up; the runner does.
	setup func(seed int64, maxOps int) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// slice pushes ops operations through the system in a closed loop,
	// compares every result with the sequential reference, and returns the
	// number of operations that failed and one latency sample (ns) per
	// closed-loop call: how long the client's call that carried the
	// operations took — a request, a Plan.RunAll, a SendBatch.  k numbers
	// the slice.
	slice(k, ops int) (failed int, lat []int64)
	// planRun drives ops operations through the compiled plan from one
	// client with the given run options, recording a span around each
	// public call when tr is non-nil.
	planRun(ops int, tr *tracer, opts ...snet.Option) planOut
	// reference computes ops operations with the sequential reference
	// alone: the bare compute under the coordination layer.
	reference(ops int)
	// build returns a fresh blueprint of the workload's net, plan the
	// compiled plan the measured loop runs.
	build() snet.Node
	plan() *snet.Plan
	// close tears everything down; the runner checks for leaks after it.
	close() error
}

// planOut is the outcome of one planRun.
type planOut struct {
	failed int
	// stats are the counters of the last run the call made (they repeat
	// exactly from run to run) and statOps the operations that run carried;
	// the workload fills statOps in.
	stats   map[string]int64
	statOps int
}

// round brings an operation count down to whole calls, at least one.
func (w *workload) round(ops int) int {
	return max(ops-ops%w.callOps, w.callOps)
}

// opsFor scales an operation count written for refSeconds to a run length.
func (w *workload) opsFor(seconds float64, base int) int {
	return w.round(int(float64(base)*seconds/refSeconds + 0.5))
}

var allWorkloads = []*workload{
	webpipeHTTP,
	webpipeStream,
	filterChain,
	wavefrontJoin,
	sudokuSearch,
	stencilBoxes,
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// sumKeys adds up the counters named <prefix>…<suffix>.
func sumKeys(stats map[string]int64, prefix, suffix string) int64 {
	var total int64
	for k, v := range stats {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			total += v
		}
	}
	return total
}

// maxKeys is the largest of the counters named <prefix>…<suffix>.
func maxKeys(stats map[string]int64, prefix, suffix string) int64 {
	var m int64
	for k, v := range stats {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			m = max(m, v)
		}
	}
	return m
}

// runAllCalls is the closed loop of the workloads that hand the plan whole
// batches: calls times, feed inputs() to Plan.RunAll, wait for every output
// and let check count the operations that came back wrong.  With lat
// non-nil it stores one latency sample per call.
func runAllCalls(p *snet.Plan, calls int, inputs func() []*snet.Record,
	check func(out []*snet.Record, st *snet.Stats) int,
	lat []int64, tr *tracer, opts ...snet.Option) planOut {
	var res planOut
	var last *snet.Stats
	for c := 0; c < calls; c++ {
		in := inputs()
		t0 := time.Now()
		id := tr.begin("plan.run_all", -1, c)
		out, st, err := p.RunAll(context.Background(), in, opts...)
		tr.end(id)
		if lat != nil {
			lat[c] = int64(time.Since(t0))
		}
		if err != nil {
			res.failed += len(in)
		} else {
			res.failed += check(out, st)
		}
		last = st
	}
	if last != nil {
		res.stats = last.Snapshot()
	}
	return res
}

// runAller is a workload whose closed-loop call is one Plan.RunAll over a
// fixed batch of inputs: the measured slice and the plan rung of the traced
// run are the same loop.
type runAller struct {
	p       *snet.Plan
	callOps int // operations one call carries: len(inputs())
	inputs  func() []*snet.Record
	// check counts the operations of one call that came back wrong.
	check func(out []*snet.Record, st *snet.Stats) int
	lat   []int64 // one sample per call of the largest slice
}

func (r *runAller) slice(_, ops int) (int, []int64) {
	n := ops / r.callOps
	return runAllCalls(r.p, n, r.inputs, r.check, r.lat, nil).failed, r.lat[:n]
}

func (r *runAller) planRun(ops int, tr *tracer, opts ...snet.Option) planOut {
	out := runAllCalls(r.p, ops/r.callOps, r.inputs, r.check, nil, tr, opts...)
	out.statOps = r.callOps
	return out
}

func (r *runAller) plan() *snet.Plan { return r.p }
func (r *runAller) close() error     { return nil }
