package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/snet"
)

// starvingNet is a program whose synchrocell has one pattern ({ghost}) that
// no upstream variant can ever satisfy — a registration-time lint finding,
// not a type error, so the daemon must register it and log the hazard.
const starvingNet = `
box inc (<n>) -> (<n>);
box echo () -> ();
net halfsync connect inc .. [| {<n>}, {ghost} |] .. echo;
`

// captureLint swaps the registration-time lint writer for a buffer.
func captureLint(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	old := lintOut
	lintOut = &buf
	t.Cleanup(func() { lintOut = old })
	return &buf
}

// TestBuiltinNetworksLintClean pins that every network the daemon ships —
// the three sudoku figures and the two workload nets — registers without a
// single liveness finding: the log carries one verified-deadlock-free
// verdict line (with its finite memory bound) per network and nothing else.
// It also pins that each network is compiled and analysed once: the report
// logged at startup is the one Network.Verify returns after a session has
// opened and /api/networks has been read, over the same cached plan.
func TestBuiltinNetworksLintClean(t *testing.T) {
	buf := captureLint(t)
	svc, err := newService(config{workers: 1, throttle: 4, level: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	verdicts := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		if !strings.Contains(line, "verified deadlock-free, static memory bound") {
			t.Errorf("unexpected lint output: %s", line)
		}
		verdicts++
	}
	if verdicts != 5 {
		t.Errorf("want 5 verdict lines (fig1-3, webpipe, wavefront), got %d:\n%s", verdicts, buf.String())
	}

	names := []string{"fig1", "fig2", "fig3", "webpipe", "wavefront"} // registration order
	type cached struct {
		plan *snet.Plan
		rep  *analysis.Report
	}
	atStartup := map[string]cached{}
	for _, name := range names {
		n, err := svc.Network(name)
		if err != nil {
			t.Fatal(err)
		}
		plan, _ := n.Plan()
		atStartup[name] = cached{plan, n.Verify()}
		sess, err := svc.Open(name)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		sess.Release()
	}
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/networks", nil))
	if rec.Code != 200 {
		t.Fatalf("/api/networks: %d %s", rec.Code, rec.Body)
	}
	logged := buf.String()
	buf.Reset()
	for _, name := range names {
		n, _ := svc.Network(name)
		plan, _ := n.Plan()
		rep := n.Verify()
		if plan != atStartup[name].plan || rep != atStartup[name].rep {
			t.Errorf("%s: the plan or report was computed again after startup", name)
		}
		logVerdict(name, rep)
	}
	if buf.String() != logged {
		t.Errorf("the startup log is not the served reports:\n%s\nvs\n%s", logged, buf.String())
	}
}

// TestLangNetworkDeadlockRefused pins the admission side of the verifier:
// a textual net with a starving synchrocell is deadlock-positive, so the
// daemon refuses to register it by default, pointing at -allow-deadlock.
func TestLangNetworkDeadlockRefused(t *testing.T) {
	captureLint(t)
	path := filepath.Join(t.TempDir(), "halfsync.snet")
	if err := os.WriteFile(path, []byte(starvingNet), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := newService(config{workers: 1, throttle: 4, level: 40, snetFile: path})
	if err == nil {
		t.Fatal("deadlock-positive net must refuse registration by default")
	}
	for _, want := range []string{"deadlock-positive", "-allow-deadlock"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal error misses %q: %v", want, err)
		}
	}
}

// TestLangNetworkLintLoggedAtRegistration registers a textual net with a
// starving synchrocell under -allow-deadlock and checks the finding lands
// in the daemon log — with its code, node path, .snet source position, and
// the counterexample trace — while the network still registers.
func TestLangNetworkLintLoggedAtRegistration(t *testing.T) {
	buf := captureLint(t)
	path := filepath.Join(t.TempDir(), "halfsync.snet")
	if err := os.WriteFile(path, []byte(starvingNet), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := newService(config{workers: 1, throttle: 4, level: 40, snetFile: path, allowDeadlock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	if _, err := svc.Network("halfsync"); err != nil {
		t.Fatalf("net with findings must still register under -allow-deadlock: %v", err)
	}
	log := buf.String()
	if !strings.Contains(log, "snetd: net halfsync:") {
		t.Fatalf("no lint log line for halfsync, got:\n%s", log)
	}
	if !strings.Contains(log, "sync-starvation") {
		t.Errorf("log misses the sync-starvation code:\n%s", log)
	}
	if !strings.Contains(log, "DEADLOCK-POSITIVE") {
		t.Errorf("log misses the verdict line:\n%s", log)
	}
	if !strings.Contains(log, "trace[0]") {
		t.Errorf("log misses the counterexample trace:\n%s", log)
	}
	// The finding must carry the synchrocell's source position (line 4 of
	// the program, the "[|" site) so the log points back into the file.
	if !strings.Contains(log, "4:") {
		t.Errorf("log misses the .snet source position:\n%s", log)
	}
}
