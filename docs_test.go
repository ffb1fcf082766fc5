// The documents cite performance numbers by the name the repository benchmark
// gives them.  This test holds them to it: every metric and workload named in
// EXPERIMENTS.md and README.md is declared in BENCHMARK.json, and no document
// points at the measurement system `go run ./benchmark` replaced, or at the vet
// tool the tier-1 invariant tests replaced.
package repro_test

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkNames is what BENCHMARK.json declares: metric names (end-to-end
// and per-layer), workload names, and the first segment of every per-layer
// metric ("core", "service", …), which is how a backticked dotted word in a
// document is told from a Go identifier or a stats counter.
type benchmarkNames struct {
	metrics, workloads, namespaces map[string]bool
}

func loadBenchmarkNames(t *testing.T) benchmarkNames {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	n := benchmarkNames{map[string]bool{}, map[string]bool{}, map[string]bool{}}
	for _, w := range spec.Workloads {
		n.workloads[w.Name] = true
	}
	for _, m := range spec.EndToEnd {
		n.metrics[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		n.metrics[m.Name] = true
		n.namespaces[m.Name[:strings.IndexByte(m.Name, '.')]] = true
	}
	return n
}

var (
	// `metric` @ `workload`
	citedAt = regexp.MustCompile("`([a-z0-9_.*]+)` @ `([a-z0-9_*]+)`")
	// a backticked lower-case dotted word: `core.plan.us_per_op`, `core.fuse.*`
	citedDotted = regexp.MustCompile("`([a-z][a-z0-9_]*(?:\\.[a-z0-9_]+)*\\.(?:[a-z0-9_]+|\\*))`")
	// the deleted measurement system, the deleted vet tool, and the deleted
	// static modes beside snetrun -check
	retired = regexp.MustCompile(`cmd/experiments|internal/bench|BENCH_[0-9]+\.json|cmd/snetvet|-vettool|-lint=strict|snetrun -verify|-check -lint`)
)

// known reports whether name is a declared name, or a `prefix.*` / `prefix_*`
// glob that at least one declared name matches.
func known(set map[string]bool, name string) bool {
	if prefix, ok := strings.CutSuffix(name, "*"); ok {
		for k := range set {
			if strings.HasPrefix(k, prefix) {
				return true
			}
		}
		return false
	}
	return set[name]
}

// checkCitations returns one line per name in text that BENCHMARK.json does
// not declare.
func checkCitations(text string, names benchmarkNames) []string {
	var bad []string
	for _, m := range citedAt.FindAllStringSubmatch(text, -1) {
		if !known(names.metrics, m[1]) {
			bad = append(bad, fmt.Sprintf("%s: metric %q is not in BENCHMARK.json", m[0], m[1]))
		}
		if !known(names.workloads, m[2]) {
			bad = append(bad, fmt.Sprintf("%s: workload %q is not in BENCHMARK.json", m[0], m[2]))
		}
	}
	for _, m := range citedDotted.FindAllStringSubmatch(text, -1) {
		ns, _, _ := strings.Cut(m[1], ".")
		if names.namespaces[ns] && !known(names.metrics, m[1]) {
			bad = append(bad, fmt.Sprintf("%s: metric %q is not in BENCHMARK.json", m[0], m[1]))
		}
	}
	return bad
}

func TestDocsCiteTheBenchmark(t *testing.T) {
	names := loadBenchmarkNames(t)

	// The check itself: right names pass, each kind of wrong name is caught.
	good := "`ops_per_s` @ `webpipe_http`, `core.fuse.*`, `service.session.open_us`, " +
		"`split.level.replicas`, `snet.Compile`"
	if bad := checkCitations(good, names); len(bad) != 0 {
		t.Errorf("valid citations rejected: %v", bad)
	}
	for _, misspelt := range []string{
		"`ops_per_sec` @ `webpipe_http`",
		"`ops_per_s` @ `webpipe_htpp`",
		"`core.plan.us_per_opp`",
		"`core.fusion.*`",
	} {
		if bad := checkCitations(misspelt, names); len(bad) != 1 {
			t.Errorf("%s: want one finding, got %v", misspelt, bad)
		}
	}

	for doc, citesMetrics := range map[string]bool{
		"EXPERIMENTS.md": true, "README.md": true,
		"DESIGN.md": false, "doc.go": false, ".claude/skills/verify/SKILL.md": false,
	} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if citesMetrics {
			for _, b := range checkCitations(string(data), names) {
				t.Errorf("%s: %s", doc, b)
			}
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := retired.FindString(line); m != "" {
				t.Errorf("%s:%d mentions %s: `go run ./benchmark` is the only measurement system, invariants_test.go the only check of the runtime's invariants, `snetrun -check` the only static check of a program", doc, i+1, m)
			}
		}
	}
}
