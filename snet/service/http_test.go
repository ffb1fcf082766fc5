package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/snet"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	svc := New()
	svc.Register("inc", "increment <n>", Options{BufferSize: 4, MaxSessions: 128}, incNet, nil)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Shutdown() })
	return svc, ts
}

// call issues a JSON request and decodes the JSON response into out.
func call(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	var opened struct {
		Session string `json:"session"`
	}
	if code := call(t, "POST", ts.URL+"/api/sessions", map[string]string{"net": "inc"}, &opened); code != http.StatusCreated {
		t.Fatalf("open: status %d", code)
	}
	recs := []RecordJSON{
		{Tags: map[string]int{"n": 1}},
		{Tags: map[string]int{"n": 2}, Fields: map[string]string{"who": "client"}},
	}
	var fed struct {
		Accepted int `json:"accepted"`
	}
	url := ts.URL + "/api/sessions/" + opened.Session
	if code := call(t, "POST", url+"/records", map[string]any{"records": recs, "close": true}, &fed); code != http.StatusOK {
		t.Fatalf("records: status %d", code)
	}
	if fed.Accepted != 2 {
		t.Fatalf("accepted %d", fed.Accepted)
	}
	var res struct {
		Records []RecordJSON `json:"records"`
		Done    bool         `json:"done"`
	}
	if code := call(t, "GET", url+"/results?wait=5s", nil, &res); code != http.StatusOK {
		t.Fatalf("results: status %d", code)
	}
	if !res.Done || len(res.Records) != 2 {
		t.Fatalf("results: %+v", res)
	}
	seen := map[int]RecordJSON{}
	for _, r := range res.Records {
		seen[r.Tags["n"]] = r
	}
	if _, ok := seen[2]; !ok {
		t.Fatalf("missing <n>=2: %+v", res.Records)
	}
	if got := seen[3].Fields["who"]; got != "client" {
		t.Fatalf("flow inheritance lost the field: %+v", seen[3])
	}
	if code := call(t, "DELETE", url, nil, nil); code != http.StatusOK {
		t.Fatalf("release: status %d", code)
	}
	if code := call(t, "GET", url+"/results", nil, nil); code != http.StatusNotFound {
		t.Fatalf("results after release: status %d, want 404", code)
	}
}

func TestHTTPRunAndStats(t *testing.T) {
	_, ts := newTestServer(t)
	var res struct {
		Records []RecordJSON `json:"records"`
		Done    bool         `json:"done"`
		Ms      float64      `json:"ms"`
	}
	body := map[string]any{
		"net":     "inc",
		"records": []RecordJSON{{Tags: map[string]int{"n": 41}}},
		"wait":    "5s",
	}
	if code := call(t, "POST", ts.URL+"/api/run", body, &res); code != http.StatusOK {
		t.Fatalf("run: status %d", code)
	}
	if !res.Done || len(res.Records) != 1 || res.Records[0].Tags["n"] != 42 {
		t.Fatalf("run result: %+v", res)
	}
	var stats map[string]int64
	if code := call(t, "GET", ts.URL+"/api/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	for _, key := range []string{
		"net.inc.run.count", "net.inc.records.in", "net.inc.records.out",
		"net.inc.latency.run_ns", "run.inc.box.inc.calls",
	} {
		if stats[key] == 0 {
			t.Fatalf("stats[%q] = 0; snapshot: %v", key, stats)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t)
	if code := call(t, "POST", ts.URL+"/api/sessions", map[string]string{"net": "nope"}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown net: status %d", code)
	}
	if code := call(t, "GET", ts.URL+"/api/sessions/s999/results", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", code)
	}
	var health struct {
		OK bool `json:"ok"`
	}
	if code := call(t, "GET", ts.URL+"/api/healthz", nil, &health); code != http.StatusOK || !health.OK {
		t.Fatalf("healthz: %d %+v", code, health)
	}
}

func TestHTTPSessionLimit(t *testing.T) {
	svc := New()
	svc.Register("inc", "", Options{MaxSessions: 1}, incNet, nil)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown()
	var opened struct {
		Session string `json:"session"`
	}
	if code := call(t, "POST", ts.URL+"/api/sessions", map[string]string{"net": "inc"}, &opened); code != http.StatusCreated {
		t.Fatalf("open: %d", code)
	}
	if code := call(t, "POST", ts.URL+"/api/sessions", map[string]string{"net": "inc"}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("over limit: status %d, want 429", code)
	}
}

// TestHTTPErrorPaths covers the client-fault surface of the wire protocol:
// unknown names, malformed bodies, malformed records, sends after
// close-of-input (409 conflict), and bad query parameters.
func TestHTTPErrorPaths(t *testing.T) {
	_, ts := newTestServer(t)

	// Unknown network on the one-shot endpoint too.
	if code := call(t, "POST", ts.URL+"/api/run", map[string]any{"net": "nope"}, nil); code != http.StatusNotFound {
		t.Fatalf("run unknown net: status %d", code)
	}
	// Malformed request body (not JSON).
	req, _ := http.NewRequest("POST", ts.URL+"/api/sessions", bytes.NewBufferString("{not json"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}

	var opened struct {
		Session string `json:"session"`
	}
	if code := call(t, "POST", ts.URL+"/api/sessions", map[string]string{"net": "inc"}, &opened); code != http.StatusCreated {
		t.Fatalf("open: status %d", code)
	}
	url := ts.URL + "/api/sessions/" + opened.Session

	// Malformed record JSON: a tag value that is not an int.
	req, _ = http.NewRequest("POST", url+"/records",
		bytes.NewBufferString(`{"records":[{"tags":{"n":"not-an-int"}}]}`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed record: status %d", resp.StatusCode)
	}
	// Bad ?wait and ?max on the results endpoint.
	// A wait that has already expired, on both endpoints that take one.
	for _, wait := range []string{"banana", "0s", "-1s"} {
		if code := call(t, "GET", url+"/results?wait="+wait, nil, nil); code != http.StatusBadRequest {
			t.Fatalf("results with wait %s: status %d", wait, code)
		}
		run := map[string]any{"net": "inc", "records": []RecordJSON{{Tags: map[string]int{"n": 1}}}, "wait": wait}
		if code := call(t, "POST", ts.URL+"/api/run", run, nil); code != http.StatusBadRequest {
			t.Fatalf("run with wait %s: status %d", wait, code)
		}
	}
	if code := call(t, "GET", url+"/results?max=banana", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad max: status %d", code)
	}

	// Send after close-of-input: 409 conflict.
	feed := map[string]any{"records": []RecordJSON{{Tags: map[string]int{"n": 1}}}, "close": true}
	if code := call(t, "POST", url+"/records", feed, nil); code != http.StatusOK {
		t.Fatalf("feed: status %d", code)
	}
	var late struct {
		Error    string `json:"error"`
		Accepted int    `json:"accepted"`
	}
	if code := call(t, "POST", url+"/records", feed, &late); code != http.StatusConflict {
		t.Fatalf("send after close: status %d (%+v)", code, late)
	}
	if late.Accepted != 0 {
		t.Fatalf("send after close accepted %d records", late.Accepted)
	}

	// The session is still drainable after the failed sends.
	var res struct {
		Records []RecordJSON `json:"records"`
		Done    bool         `json:"done"`
	}
	if code := call(t, "GET", url+"/results?wait=5s", nil, &res); code != http.StatusOK {
		t.Fatalf("results: status %d", code)
	}
	if !res.Done || len(res.Records) != 1 {
		t.Fatalf("results after conflict: %+v", res)
	}
}

// TestHTTPRefusedRecordsReturnToArena: the codec draws a request's records
// from the arena, and those the network did not take — a batch sent after
// close of input, the tail cut off by the request's deadline — go back to it:
// the ledger reads what it read before the request.
func TestHTTPRefusedRecordsReturnToArena(t *testing.T) {
	// Every session is isolated: a run of its own.
	t.Run("isolated", func(t *testing.T) {
		svc := New()
		gate := make(chan struct{})
		svc.Register("inc", "", Options{BufferSize: 4}, incNet, nil)
		svc.Register("slow", "", Options{BufferSize: 1, StreamBatch: 1}, gatedNet(gate), nil)
		ts := httptest.NewServer(svc.Handler())
		defer ts.Close()
		defer svc.Shutdown()

		ledgerAtBase := arenaLedger(t)

		var opened struct {
			Session string `json:"session"`
		}
		if code := call(t, "POST", ts.URL+"/api/sessions", map[string]string{"net": "inc"}, &opened); code != http.StatusCreated {
			t.Fatalf("open: status %d", code)
		}
		url := ts.URL + "/api/sessions/" + opened.Session
		if code := call(t, "POST", url+"/close", nil, nil); code != http.StatusOK {
			t.Fatalf("close: status %d", code)
		}
		three := map[string]any{"records": []RecordJSON{{Tags: map[string]int{"n": 1}}, {Tags: map[string]int{"n": 2}}, {Tags: map[string]int{"n": 3}}}}
		if code := call(t, "POST", url+"/records", three, nil); code != http.StatusConflict {
			t.Fatalf("records after close: status %d", code)
		}
		ledgerAtBase("a refused /records")

		ten := make([]RecordJSON, 10)
		for i := range ten {
			ten[i] = RecordJSON{Tags: map[string]int{"n": i}}
		}
		var cut struct {
			Accepted  int  `json:"accepted"`
			InputDone bool `json:"inputDone"`
		}
		body := map[string]any{"net": "slow", "records": ten, "wait": "50ms"}
		if code := call(t, "POST", ts.URL+"/api/run", body, &cut); code != http.StatusOK || cut.InputDone || cut.Accepted >= len(ten) {
			t.Fatalf("run against a shut gate: status %d (%+v)", code, cut)
		}
		close(gate) // what the network did take moves on and out
		ledgerAtBase("a partially accepted /api/run")
	})
}

// arenaLedger samples the arena ledger once earlier tests' runs have stopped
// moving it, and returns a check that it is back there.
func arenaLedger(t *testing.T) (atBase func(after string)) {
	base := snet.PoolStats().Live()
	for settled := false; !settled; {
		time.Sleep(10 * time.Millisecond)
		live := snet.PoolStats().Live()
		base, settled = live, live == base
	}
	return func(after string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for snet.PoolStats().Live() != base && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if s := snet.PoolStats(); s.Live() != base {
			t.Fatalf("after %s: %d arena records live, want %d (%+v)", after, s.Live(), base, s)
		}
	}
}

// TestHTTPOversizedRequest: a body over maxBody is refused with 413 before
// a session opens, and what the reader built of it goes back to the arena.
func TestHTTPOversizedRequest(t *testing.T) {
	// Every session is isolated: a run of its own.
	t.Run("isolated", func(t *testing.T) {
		svc := New()
		svc.Register("inc", "", Options{}, incNet, nil)
		ts := httptest.NewServer(svc.Handler())
		defer ts.Close()
		defer svc.Shutdown()
		ledgerAtBase := arenaLedger(t)
		resp, err := http.Post(ts.URL+"/api/run", "application/json", strings.NewReader(oversizedRun("inc")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized /api/run: status %d, want 413", resp.StatusCode)
		}
		if n := svc.SessionCount(); n != 0 {
			t.Fatalf("oversized /api/run left %d sessions", n)
		}
		ledgerAtBase("an oversized /api/run")
	})
}

// TestHTTPRunFeedsPastTheBuffer: a one-shot run of more records than its
// network's streams hold without a reader — a run of the plan taking them from
// an input stream filled before it starts — takes every record, returns every
// output, and leaves the arena as it found it.
func TestHTTPRunFeedsPastTheBuffer(t *testing.T) {
	for _, opts := range []Options{
		{BufferSize: 2, StreamBatch: 1},
		{BufferSize: 0},
	} {
		t.Run(fmt.Sprintf("buffer=%d", opts.BufferSize), func(t *testing.T) {
			svc := New()
			svc.Register("inc", "", opts, incNet, nil)
			ts := httptest.NewServer(svc.Handler())
			defer ts.Close()
			defer svc.Shutdown()
			ledgerAtBase := arenaLedger(t)
			in := make([]RecordJSON, 40)
			for i := range in {
				in[i] = RecordJSON{Tags: map[string]int{"n": i}}
			}
			var res struct {
				Records   []RecordJSON `json:"records"`
				Done      bool         `json:"done"`
				Accepted  int          `json:"accepted"`
				InputDone bool         `json:"inputDone"`
			}
			body := map[string]any{"net": "inc", "records": in, "wait": "10s"}
			if code := call(t, "POST", ts.URL+"/api/run", body, &res); code != http.StatusOK {
				t.Fatalf("status %d", code)
			}
			if !res.Done || !res.InputDone || res.Accepted != len(in) || len(res.Records) != len(in) {
				t.Fatalf("run: done=%v inputDone=%v accepted=%d, %d records", res.Done, res.InputDone, res.Accepted, len(res.Records))
			}
			for i, r := range res.Records {
				if r.Tags["n"] != i+1 {
					t.Fatalf("record %d: %+v", i, r)
				}
			}
			ledgerAtBase("a run past the buffer")
		})
	}
}

// TestHTTPConcurrentClients exercises the wire protocol from many clients
// at once against one shared network definition.
func TestHTTPConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t)
	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var res struct {
				Records []RecordJSON `json:"records"`
				Done    bool         `json:"done"`
			}
			body := map[string]any{
				"net":     "inc",
				"records": []RecordJSON{{Tags: map[string]int{"n": c}}},
				"wait":    "10s",
			}
			if code := call(t, "POST", ts.URL+"/api/run", body, &res); code != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d", c, code)
				return
			}
			if !res.Done || len(res.Records) != 1 || res.Records[0].Tags["n"] != c+1 {
				errs <- fmt.Errorf("client %d: %+v", c, res)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// /api/networks exposes the compile phase: the inferred type signature and
// the typed topology of each network's plan.
func TestHTTPNetworksTopology(t *testing.T) {
	_, ts := newTestServer(t)
	var resp struct {
		Networks []struct {
			Name       string         `json:"name"`
			Type       string         `json:"type"`
			Topology   *snet.Topology `json:"topology"`
			TypeErrors int            `json:"typeErrors"`
		} `json:"networks"`
	}
	if code := call(t, "GET", ts.URL+"/api/networks", nil, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Networks) != 1 || resp.Networks[0].Name != "inc" {
		t.Fatalf("networks = %+v", resp.Networks)
	}
	n := resp.Networks[0]
	if n.Type != "{<n>} -> {<n>}" {
		t.Fatalf("type = %q", n.Type)
	}
	if n.Topology == nil || n.Topology.Kind != "box" || n.Topology.Sig != "(<n>) -> (<n>)" {
		t.Fatalf("topology = %+v", n.Topology)
	}
	if n.TypeErrors != 0 {
		t.Fatalf("typeErrors = %d", n.TypeErrors)
	}
}

// /api/networks exposes the verify phase: the static deadlock verdict and
// the finite memory high-water bound of each network's plan.
func TestHTTPNetworksVerdict(t *testing.T) {
	_, ts := newTestServer(t)
	var resp struct {
		Networks []struct {
			Name         string `json:"name"`
			DeadlockFree *bool  `json:"deadlockFree"`
			MemoryBound  int64  `json:"memoryBound"`
			Findings     int    `json:"findings"`
		} `json:"networks"`
	}
	if code := call(t, "GET", ts.URL+"/api/networks", nil, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Networks) != 1 {
		t.Fatalf("networks = %+v", resp.Networks)
	}
	n := resp.Networks[0]
	if n.DeadlockFree == nil || !*n.DeadlockFree {
		t.Fatalf("deadlockFree = %v, want true", n.DeadlockFree)
	}
	if n.MemoryBound <= 0 {
		t.Fatalf("memoryBound = %d, want a positive finite bound", n.MemoryBound)
	}
	if n.Findings != 0 {
		t.Fatalf("findings = %d, want 0 for the clean inc box", n.Findings)
	}
}
