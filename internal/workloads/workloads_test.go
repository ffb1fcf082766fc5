package workloads

import (
	"context"
	"fmt"
	"testing"

	"repro/snet"
)

// eachCell runs body in two cells, the subtests "fuse=false" and "fuse=true"
// the tests had when a workload net had two plans, so every test keeps its
// name; both run the net's one plan.  What that plan computes is held to the
// sequential reference evaluator by internal/core's TestReferenceAgreement.
// compile is this package's one route from a Node to something that runs.
func eachCell(t *testing.T, body func(t *testing.T, compile func(snet.Node) *snet.Plan)) {
	for _, name := range []string{"fuse=false", "fuse=true"} {
		t.Run(name, func(t *testing.T) {
			body(t, func(net snet.Node) *snet.Plan {
				plan, err := snet.Compile(net)
				if err != nil {
					t.Fatal(err)
				}
				return plan
			})
		})
	}
}

func TestWavefrontMatchesReference(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			eachCell(t, func(t *testing.T, compile func(snet.Node) *snet.Plan) {
				seed := int64(7 * n)
				out, stats, err := compile(WavefrontNet(n, seed)).RunAll(context.Background(),
					[]*snet.Record{WavefrontSeed()})
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if len(out) != 1 {
					t.Fatalf("want 1 output record, got %d: %v", len(out), out)
				}
				got := out[0].MustField("result").(int)
				want := WavefrontReference(n, seed)
				if got != want {
					t.Fatalf("wavefront n=%d: got %d, want %d", n, got, want)
				}
				m := stats.Snapshot()
				if fired, interior := m["sync.wave_join.fired"], int64((n-1)*(n-1)); fired != interior {
					t.Errorf("sync.wave_join.fired = %d, want %d (one per interior cell)", fired, interior)
				}
				if starved := m["sync.wave_join.starved"]; starved != 0 {
					t.Errorf("sync.wave_join.starved = %d, want 0", starved)
				}
			})
		})
	}
}

// TestWavefrontStageMatrix: the star ∘ parallel ∘ split(sync..box) net agrees
// with the sequential reference, joins once per interior cell, unfolds one
// stage per anti-diagonal and starts one replica per interior cell, at every
// box width (unset: the engine decides) and batch size.
func TestWavefrontStageMatrix(t *testing.T) { eachCell(t, testWavefrontStageMatrix) }

func testWavefrontStageMatrix(t *testing.T, compile func(snet.Node) *snet.Plan) {
	for _, n := range []int{2, 8, 16} {
		for _, w := range []int{0, 1, 4} {
			for _, b := range []int{1, 8, 64} {
				t.Run(fmt.Sprintf("n=%d/W%d/B%d", n, w, b), func(t *testing.T) {
					seed := int64(3*n + w + b)
					opts := []snet.Option{snet.WithStreamBatch(b)}
					if w > 0 {
						opts = append(opts, snet.WithBoxWorkers(w))
					}
					out, stats, err := compile(WavefrontNet(n, seed)).RunAll(context.Background(),
						[]*snet.Record{WavefrontSeed()}, opts...)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					if len(out) != 1 {
						t.Fatalf("want 1 output record, got %d: %v", len(out), out)
					}
					if got, want := out[0].MustField("result").(int), WavefrontReference(n, seed); got != want {
						t.Fatalf("result %d, want %d", got, want)
					}
					interior := int64((n - 1) * (n - 1))
					for key, want := range map[string]int64{
						"sync.wave_join.fired":      interior,
						"sync.wave_join.starved":    0,
						"star.wave_front.replicas":  int64(2*n - 1),
						"split.wave_cells.replicas": interior,
					} {
						if got := stats.Counter(key); got != want {
							t.Errorf("%s = %d, want %d", key, got, want)
						}
					}
				})
			}
		}
	}
}

func TestDivConqMatchesReference(t *testing.T) { eachCell(t, testDivConqMatchesReference) }

func testDivConqMatchesReference(t *testing.T, compile func(snet.Node) *snet.Plan) {
	const jobs, n, leaf = 3, 64, 8
	seed := int64(42)
	out, stats, err := compile(DivConqNet(n, leaf)).RunAll(context.Background(),
		DivConqJobs(jobs, n, seed),
		snet.WithMaxSplitWidth(DivConqSplitWidth(jobs, n, leaf)))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(out) != jobs {
		t.Fatalf("want %d output records, got %d", jobs, len(out))
	}
	seen := make(map[int]bool)
	for _, rec := range out {
		job := rec.MustTag("job")
		if seen[job] {
			t.Fatalf("duplicate output for job %d", job)
		}
		seen[job] = true
		got := rec.MustField("out").([]int)
		want := DivConqReference(DivConqInput(n, seed, job))
		if len(got) != len(want) {
			t.Fatalf("job %d: got %d elements, want %d", job, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("job %d: element %d = %d, want %d", job, i, got[i], want[i])
			}
		}
	}
	m := stats.Snapshot()
	if fired, merges := m["sync.dc_join.fired"], int64(jobs*(n/leaf-1)); fired != merges {
		t.Errorf("sync.dc_join.fired = %d, want %d (n/leaf-1 merges per job)", fired, merges)
	}
	if starved := m["sync.dc_join.starved"]; starved != 0 {
		t.Errorf("sync.dc_join.starved = %d, want 0", starved)
	}
}

func TestWebPipeMatchesReference(t *testing.T) { eachCell(t, testWebPipeMatchesReference) }

func testWebPipeMatchesReference(t *testing.T, compile func(snet.Node) *snet.Plan) {
	const c = 60
	in := make([]*snet.Record, c)
	for i := range in {
		in[i] = WebPipeRequest(i)
	}
	out, _, err := compile(WebPipeNet()).RunAll(context.Background(), in)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(out) != c {
		t.Fatalf("want %d responses, got %d", c, len(out))
	}
	for _, rec := range out {
		id := rec.MustTag("id")
		wantResp, wantStatus := WebPipeReference(WebPipeURL(id))
		if got := rec.MustField("resp").(string); got != wantResp {
			t.Errorf("id %d: resp %q, want %q", id, got, wantResp)
		}
		if got := rec.MustTag("status"); got != wantStatus {
			t.Errorf("id %d: status %d, want %d", id, got, wantStatus)
		}
	}
}

// BenchmarkDivConq runs the divide-and-conquer workload: mergesort as star
// unfolding over per-pair split replicas.
func BenchmarkDivConq(b *testing.B) {
	const jobs, n, leaf = 2, 512, 32
	plan := snet.MustCompile(DivConqNet(n, leaf))
	in := DivConqJobs(jobs, n, 23)
	for i := 0; i < b.N; i++ {
		out, _, err := plan.RunAll(context.Background(), in,
			snet.WithMaxSplitWidth(DivConqSplitWidth(jobs, n, leaf)))
		if err != nil || len(out) != jobs {
			b.Fatalf("divconq: %d records err=%v", len(out), err)
		}
	}
}
