package service

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/workloads"
	"repro/snet"
)

// TestDivConqCrossModeDeterminism holds a recursive star net to its reference
// in every run mode: the divide-and-conquer workload — star
// unfolding, per-pair split replicas and synchrocell joins — must produce
// the same per-job output under every (W,B) ∈ {1,4}×{1,64} combination,
// with several sessions running concurrently over the same network.
func TestDivConqCrossModeDeterminism(t *testing.T) {
	const jobs, n, leaf = 4, 64, 8
	const sessions = 3

	reference := func(seed int64) map[int]string {
		want := make(map[int]string, jobs)
		for j := 0; j < jobs; j++ {
			want[j] = fmt.Sprint(workloads.DivConqReference(workloads.DivConqInput(n, seed, j)))
		}
		return want
	}

	for _, w := range []int{1, 4} {
		for _, b := range []int{1, 64} {
			w, b := w, b
			t.Run(fmt.Sprintf("W=%d/B=%d", w, b), func(t *testing.T) {
				svc := New()
				defer svc.Shutdown()
				svc.Register("dc", "", Options{
					BoxWorkers:    w,
					StreamBatch:   b,
					BufferSize:    4,
					MaxSplitWidth: workloads.DivConqSplitWidth(jobs, n, leaf),
				}, func(Options) (snet.Node, error) {
					return workloads.DivConqNet(n, leaf), nil
				}, nil)

				var wg sync.WaitGroup
				for c := 0; c < sessions; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						seed := int64(100 + c)
						sess, err := svc.Open("dc")
						if err != nil {
							t.Errorf("session %d: open: %v", c, err)
							return
						}
						defer sess.Release()
						ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
						defer cancel()
						if _, err := sess.SendBatch(ctx, workloads.DivConqJobs(jobs, n, seed)); err != nil {
							t.Errorf("session %d: send: %v", c, err)
							return
						}
						sess.CloseInput()
						recs, done, err := sess.Drain(ctx, 0)
						if err != nil || !done {
							t.Errorf("session %d: drain: done=%v err=%v", c, done, err)
							return
						}
						if len(recs) != jobs {
							t.Errorf("session %d: %d output records, want %d", c, len(recs), jobs)
							return
						}
						want := reference(seed)
						for _, rec := range recs {
							job := rec.MustTag("job")
							if got := fmt.Sprint(rec.MustField("out").([]int)); got != want[job] {
								t.Errorf("session %d job %d: output diverged from reference", c, job)
							}
						}
					}(c)
				}
				wg.Wait()
			})
		}
	}
}

var (
	updateGoldens = flag.Bool("update", false, "rewrite testdata/stats_keys.golden and testdata/wire.golden from this run")
	autoNumbered  = regexp.MustCompile(`#\d+`)
	// Values that depend on scheduling, not on the input: how records happened
	// to be batched into frames, how many invocations or sessions overlapped,
	// how long something took.
	volatileStat = regexp.MustCompile(`\.stream\.(frames|records)$|\.hwm\.max$|\.inflight\.max$|\.concurrency\.max$|_ns(\.max)?$`)
)

// statLines renders a Stats() snapshot as "<section> <key> <value>" lines,
// auto-numbered names normalised and scheduling-dependent values starred.
func statLines(section string, stats map[string]int64) []string {
	var lines []string
	for k, v := range stats {
		// box.<name>.escalated is present only when the engine judged the
		// box slow: a measurement, not a property of the input.
		if strings.HasSuffix(k, ".escalated") {
			continue
		}
		val := strconv.FormatInt(v, 10)
		if volatileStat.MatchString(k) {
			val = "*"
		}
		lines = append(lines, fmt.Sprintf("%s %s %s", section, autoNumbered.ReplaceAllString(k, "#N"), val))
	}
	return lines
}

// TestStatsKeySetStable is the service half of internal/workloads' test of
// the same name: what Service.Stats() — the body of /api/stats — reports
// after one webpipe session of 100 records.  Every key
// name and the value of every counter the input determines must match the
// golden, which was taken before the collector's storage became one map of
// atomic cells.  So must what it reports after 100 one-record /api/run
// requests.
func TestStatsKeySetStable(t *testing.T) {
	var got []string
	svc := webpipeService(Options{})
	sess, err := svc.Open("webpipe")
	if err != nil {
		t.Fatal(err)
	}
	in := make([]*snet.Record, 100)
	for i := range in {
		in[i] = workloads.WebPipeRequest(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	go func() {
		if _, err := sess.SendBatch(ctx, in); err != nil {
			t.Errorf("send: %v", err)
		}
		sess.CloseInput()
	}()
	recs, done, err := sess.Drain(ctx, 0)
	cancel()
	if err != nil || !done || len(recs) != len(in) {
		t.Fatalf("drained %d records, done=%v err=%v", len(recs), done, err)
	}
	sess.Release()
	got = append(got, statLines("isolated", svc.Stats())...)
	svc.Shutdown()
	// An /api/run reports as one session of one record did.
	svc = webpipeService(Options{})
	for i := 0; i < 100; i++ {
		rec := httptest.NewRecorder()
		body := fmt.Sprintf(`{"net":"webpipe","records":[{"fields":{"url":%q},"tags":{"id":%d}}]}`, workloads.WebPipeURL(i), i)
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/run", strings.NewReader(body)))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"resp":`) {
			t.Fatalf("/api/run %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	got = append(got, statLines("isolated /api/run", svc.Stats())...)
	svc.Shutdown()
	sort.Strings(got)

	const golden = "testdata/stats_keys.golden"
	if *updateGoldens {
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
