// Command experiments regenerates every experiment table of EXPERIMENTS.md:
// one table per figure and quantitative claim of the paper (see the
// experiment index in DESIGN.md).
//
// Usage:
//
//	experiments [-reps n] [-workers w] [-grain g] [-stream-batch B] [-only E3]
//	            [-smoke] [-bench-out BENCH_10.json]
//
// The workload-suite experiments (E17 wavefront, E18 divide-and-conquer,
// E19 HTTP request/response, E20 static liveness analysis, E21 record
// plane, E22 pipeline fusion, E23 deadlock & boundedness verifier)
// additionally persist machine-readable results:
// their data points are merged into the -bench-out file (schema-validated
// after writing), so successive PRs can diff the performance trajectory.
// -smoke shrinks them to CI sizes without changing the sweep structure.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		reps     = flag.Int("reps", 5, "measurement repetitions per cell")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "max with-loop workers for the scaling experiment")
		grain    = flag.Int("grain", 0, "with-loop minimum chunk size for every pool (0: per-experiment default)")
		batch    = flag.Int("stream-batch", 0, "stream batch size B for every run (0: runtime default; E13/E14 sweep B regardless)")
		only     = flag.String("only", "", "run a single experiment (e.g. E3)")
		smoke    = flag.Bool("smoke", false, "shrink the workload experiments (E17-E23) to CI-smoke sizes")
		benchOut = flag.String("bench-out", "BENCH_10.json", "merge E17-E23 machine-readable results into this file (empty: don't write)")
	)
	flag.Parse()
	bench.Reps = *reps
	bench.Grain = *grain
	bench.StreamBatch = *batch
	bench.Smoke = *smoke

	fmt.Printf("# Experiment run — %s, GOMAXPROCS=%d, reps=%d\n\n",
		time.Now().Format("2006-01-02 15:04:05"), runtime.GOMAXPROCS(0), *reps)

	var tables []*bench.Table
	var results []bench.Result
	workload := func(f func() (*bench.Table, []bench.Result)) {
		t, rs := f()
		tables = append(tables, t)
		results = append(results, rs...)
	}
	if *only == "" {
		tables = bench.All(*workers)
		workload(bench.E17Wavefront)
		workload(bench.E18DivConq)
		workload(bench.E19HTTPSessions)
		workload(bench.E20Lint)
		workload(bench.E21RecordPlane)
		workload(bench.E22PipelineFusion)
		workload(bench.E23Verify)
	} else {
		switch strings.ToUpper(*only) {
		case "E1":
			tables = []*bench.Table{bench.E1Fig1()}
		case "E2":
			tables = []*bench.Table{bench.E2Fig2()}
		case "E3":
			tables = []*bench.Table{bench.E3Fig3()}
		case "E4":
			tables = []*bench.Table{bench.E4Sequential()}
		case "E5":
			tables = []*bench.Table{bench.E5WithLoop(*workers)}
		case "E6":
			tables = []*bench.Table{bench.E6BigBoards()}
		case "E8":
			tables = []*bench.Table{bench.E8DetVsNondet()}
		case "E9":
			tables = []*bench.Table{bench.E9RuntimeMicro()}
		case "E10":
			tables = []*bench.Table{bench.E10Hybrid()}
		case "E13":
			tables = []*bench.Table{bench.E13DeepPipeline()}
		case "E14":
			tables = []*bench.Table{bench.E14Fig1Batch()}
		case "E15":
			tables = []*bench.Table{bench.E15SessionMux()}
		case "E17":
			workload(bench.E17Wavefront)
		case "E18":
			workload(bench.E18DivConq)
		case "E19":
			workload(bench.E19HTTPSessions)
		case "E20":
			workload(bench.E20Lint)
		case "E21":
			workload(bench.E21RecordPlane)
		case "E22":
			workload(bench.E22PipelineFusion)
		case "E23":
			workload(bench.E23Verify)
		default:
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (E7 is covered by unit tests, E16 by BenchmarkRouting)\n", *only)
			os.Exit(2)
		}
	}
	for _, t := range tables {
		fmt.Print(t.Markdown())
	}
	if len(results) > 0 && *benchOut != "" {
		if err := bench.MergeBenchFile(*benchOut, results); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", *benchOut, err)
			os.Exit(1)
		}
		if _, err := bench.LoadBenchFile(*benchOut); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed schema validation: %v\n", *benchOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d data point(s) to %s (schema v%d, validated)\n",
			len(results), *benchOut, bench.BenchSchemaVersion)
	}
}
