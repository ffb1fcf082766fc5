package workloads

import (
	"context"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/snet"
)

// Values that depend on scheduling, not on the input: how records happened to
// be batched into frames, how many invocations or sessions overlapped, how
// long something took.
var volatileStat = regexp.MustCompile(`(^|\.)stream\.(frames|records)$|\.hwm\.max$|\.inflight\.max$|\.concurrency\.max$|_ns(\.max)?$`)

// statLines renders a Stats snapshot for the key-set golden: one sorted
// "<section> <key> <value>" line per key, auto-numbered node names
// normalised, scheduling-dependent values starred, and the one key whose
// presence is itself a measurement (box.<name>.escalated) left out.
func statLines(section string, snap map[string]int64) []string {
	var lines []string
	for k, v := range snap {
		if strings.HasSuffix(k, ".escalated") {
			continue
		}
		val := strconv.FormatInt(v, 10)
		if volatileStat.MatchString(k) {
			val = "*"
		}
		lines = append(lines, section+" "+autoNamePat.ReplaceAllString(k, "#N")+" "+val)
	}
	sort.Strings(lines)
	return lines
}

// checkStatsGolden compares the lines, as a multiset, with
// testdata/stats_keys.golden (or, with -update, rewrites it).
func checkStatsGolden(t *testing.T, got []string) {
	t.Helper()
	const golden = "testdata/stats_keys.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		want[l]++
	}
	for _, l := range got {
		if want[l]--; want[l] < 0 {
			t.Errorf("not in %s: %s", golden, l)
		}
	}
	for l, n := range want {
		if n > 0 {
			t.Errorf("no longer reported (x%d): %s", n, l)
		}
	}
}

// TestStatsKeySetStable pins what a run reports — every key name, the ".max"
// rendering of high-water marks and the value of every counter the input
// determines — for three plan shapes, in both cells (workloads_test.go).  The
// golden was taken before the collector's storage became one map of atomic
// cells; /api/stats consumers and the benchmark's per-layer probes read these
// names.  The runs give every box one invocation at a time: a box the engine
// is left to size may escalate before its first record under a slow schedule
// (-race), and then the segment holding it never runs as one — which keys
// exist would be a scheduling measurement, like .escalated, which is left out.
func TestStatsKeySetStable(t *testing.T) {
	chain := make([]snet.Node, 16)
	for i := range chain {
		switch i % 3 {
		case 0:
			chain[i] = snet.MustFilter(fmt.Sprintf("{<n>} -> {<n>=<n>+%d}", i))
		case 1:
			chain[i] = snet.Observe(fmt.Sprintf("tap%d", i), nil)
		case 2:
			chain[i] = snet.NewBoxConcurrent(fmt.Sprintf("step%d", i), snet.MustParseSignature("(<n>) -> (<n>)"),
				func(args []any, out *snet.Emitter) error { return out.Out(1, args[0].(int)+1) }, 1)
		}
	}
	cases := []struct {
		name string
		net  snet.Node
		in   func() []*snet.Record
	}{
		{"webpipe", WebPipeNet(), func() []*snet.Record {
			in := make([]*snet.Record, 100)
			for i := range in {
				in[i] = WebPipeRequest(i)
			}
			return in
		}},
		{"wavefront", WavefrontNet(8, 56), func() []*snet.Record { return []*snet.Record{WavefrontSeed()} }},
		{"chain", snet.Serial(chain...), func() []*snet.Record {
			in := make([]*snet.Record, 50)
			for i := range in {
				in[i] = snet.NewRecord().SetTag("n", i)
			}
			return in
		}},
	}
	eachCell(t, func(t *testing.T, compile func(snet.Node) *snet.Plan) {
		var got []string
		for _, c := range cases {
			_, stats, err := compile(c.net).RunAll(context.Background(), c.in(), snet.WithBoxWorkers(1))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			got = append(got, statLines(c.name, stats.Snapshot())...)
		}
		checkStatsGolden(t, got)
	})
}
