// Command benchmark is the repository's one benchmark: six named workloads,
// the end-to-end metrics a user of the runtime sees, and — in a traced run —
// the per-layer metrics that attribute them to modules.  It drives the
// public surfaces only (snet, snet/service, sac, sudoku, internal/workloads,
// internal/analysis, snet/lang) and checks every output against a sequential
// reference.  See README.md and ../BENCHMARK.json.
//
//	go run ./benchmark --workload webpipe_http --seed 1 --seconds 10 --trace 0
//	go run ./benchmark --trace 1            # every workload, per-layer metrics
//	go run ./benchmark --sets 2             # calibration: spreads against bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// environment is recorded with every output: a number only counts with the
// machine and the code it was taken on.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
}

func currentEnvironment() environment {
	return environment{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// commit is the revision the binary was built from, as far as it can be
// told: the build's VCS stamp, else the work tree's HEAD, else "unknown"
// (the driver's checkout is not a git repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// plainName labels the wall-clock ops_per_s a run prints beside its metrics;
// calibration reads it back to show what the reference kernels took out.
const plainName = "plain_ops_per_s"

// outDir is where a traced run writes its spans, inside the checkout.
const outDir = ".bench_out"

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the input stream")
		seconds = flag.Float64("seconds", refSeconds, "length of the measured slices together, about")
		trace   = flag.Int("trace", 0, "1: replay with spans and report the per-layer metrics instead")
		sets    = flag.Int("sets", 0, "calibration: run this many sets of ten runs per workload and compare spreads with the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	selected := allWorkloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		selected = []*workload{w}
	}
	if *sets > 0 {
		if err := calibrate(selected, *sets, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}

	env := currentEnvironment()
	probed := map[string]metric{} // the probes' metrics, measured once
	ok := true
	for _, w := range selected {
		fmt.Printf("workload %s (op = %s)  seed %d  seconds %g  trace %d  commit %s  %s  GOMAXPROCS %d  NumCPU %d\n",
			w.name, w.op, *seed, *seconds, *trace, env.Commit, env.GoVersion, env.GOMAXPROCS, env.NumCPU)
		var res *result
		var err error
		if *trace == 1 {
			res, err = runTraced(w, *seed, *seconds, env, probed)
		} else {
			res, err = runEndToEnd(w, *seed, *seconds)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		ok = report(res) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// report prints every metric by name with its unit and, as the last line,
// the result object the driver reads.  It reports whether the run was clean.
func report(res *result) bool {
	res.metrics.print()
	if len(res.rawPerS) > 0 {
		fmt.Printf("  the timings above are in reference seconds; in wall-clock seconds, median of the slices:\n")
		fmt.Printf("  %-36s %14.4f 1/s\n", plainName, median(res.rawPerS))
		fmt.Printf("  setup_s of each set-up: %.4f\n", res.setups)
		fmt.Printf("  plain ops_per_s of each slice: %.0f\n", res.rawPerS)
		fmt.Printf("  machine slowness during each slice (reference kernels over their nominal time): %.3f\n", res.slowness)
		if res.steal >= 0 {
			fmt.Printf("  host steal during the slices: %.1f%% of CPU time\n", 100*res.steal)
		}
	}
	fmt.Printf("  %-36s %14.4f share (%d of %d operations)\n", "failed_share",
		float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics.values,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	return res.failed == 0
}

// writeSpans writes a traced run's spans out when the run ends.
func writeSpans(w *workload, env environment, spans []span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string      `json:"workload"`
		Env      environment `json:"env"`
		Spans    []span      `json:"spans"`
	}{w.name, env, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "spans-"+w.name+".json"), data, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
