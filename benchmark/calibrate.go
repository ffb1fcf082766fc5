package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// calibrationRuns is the number of runs in a set: the driver's own sample.
const calibrationRuns = 10

// benchmarkFile is the part of BENCHMARK.json calibration reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// reply is the last line a run prints.
type reply struct {
	Correct bool              `json:"correct"`
	Metrics map[string]metric `json:"metrics"`
}

// calibrate runs sets of ten untraced runs per workload, each run a process
// of its own with another seed, as the driver does, and prints for every
// (workload, metric) the median, the quartiles and their distance as a share
// of the median beside the bound BENCHMARK.json fixes.  It flags a spread
// above its bound, and a later set whose median is worse than the first
// set's by more than the bound.
func calibrate(ws []*workload, sets int, seed int64, seconds float64) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("calibration reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	env := currentEnvironment()
	fmt.Printf("calibration: %d sets of %d runs, seeds %d..%d, %g s, commit %s, %s, GOMAXPROCS %d, NumCPU %d\n",
		sets, calibrationRuns, seed, seed+calibrationRuns-1, seconds, env.Commit, env.GoVersion, env.GOMAXPROCS, env.NumCPU)

	flagged := 0
	first := map[string]float64{} // workload/metric → median of the first set
	for set := 1; set <= sets; set++ {
		fmt.Printf("\nset %d\n%-16s %-14s %12s %12s %12s %8s %6s\n", set,
			"workload", "metric", "median", "q1", "q3", "spread", "bound")
		for _, w := range ws {
			values := map[string][]float64{}
			steal0, total0, _ := hostTicks()
			for r := 0; r < calibrationRuns; r++ {
				out, err := exec.Command(exe, "--workload", w.name,
					"--seed", strconv.FormatInt(seed+int64(r), 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0").Output()
				if err != nil {
					return fmt.Errorf("%s, run %d of set %d: %w", w.name, r+1, set, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var rep reply
				if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil || !rep.Correct {
					return fmt.Errorf("%s, run %d of set %d: no clean result (%v)", w.name, r+1, set, err)
				}
				for name, m := range rep.Metrics {
					values[name] = append(values[name], m.Value)
				}
				for _, line := range lines {
					if f := bytes.Fields(line); len(f) == 3 && string(f[0]) == plainName {
						if v, err := strconv.ParseFloat(string(f[1]), 64); err == nil {
							values[plainName] = append(values[plainName], v)
						}
					}
				}
			}
			fmt.Printf("%-16s host steal over these runs: %.1f%% of CPU time\n", w.name, 100*stealShare(steal0, total0))
			for _, e := range file.EndToEnd {
				xs := values[e.Name]
				if len(xs) != calibrationRuns {
					return fmt.Errorf("%s: %d values of %s in %d runs", w.name, len(xs), e.Name, calibrationRuns)
				}
				q1, q2, q3 := quartiles(xs)
				sp, note := spread(xs), ""
				if sp > e.Bound {
					note = "  SPREAD ABOVE BOUND"
					flagged++
				} else if sp > e.Bound/3 {
					note = "  spread above a third of the bound"
				}
				key := w.name + "/" + e.Name
				if set == 1 {
					first[key] = q2
				} else if worse := worsening(first[key], q2, e.Better); worse > e.Bound {
					note += fmt.Sprintf("  MEDIAN %.1f%% WORSE THAN SET 1", 100*worse)
					flagged++
				}
				fmt.Printf("%-16s %-14s %12.4f %12.4f %12.4f %7.2f%% %5.0f%%%s\n",
					w.name, e.Name, q2, q1, q3, 100*sp, 100*e.Bound, note)
			}
			if xs := values[plainName]; len(xs) == calibrationRuns {
				q1, q2, q3 := quartiles(xs)
				fmt.Printf("%-16s %-14s %12.4f %12.4f %12.4f %7.2f%%         ops_per_s in wall-clock seconds, for comparison\n",
					w.name, "(plain)", q2, q1, q3, 100*spread(xs))
			}
		}
	}
	if flagged > 0 {
		return errors.New(strconv.Itoa(flagged) + " (workload, metric) pairs outside their bounds")
	}
	return nil
}

// worsening is how much worse now is than before, as a share of before.
func worsening(before, now float64, better string) float64 {
	if before == 0 {
		return 0
	}
	if better == "higher" {
		return (before - now) / before
	}
	return (now - before) / before
}
