package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runVet is the test harness around run(): capture both streams.
func runVet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestRepoIsClean vets every Go file of the repository with all three
// analyzers — this is the promoted form of the old core-package lint test,
// now covering the whole tree.
func TestRepoIsClean(t *testing.T) {
	code, _, stderr := runVet(t, "../../...")
	if code != 0 {
		t.Fatalf("repository has findings (exit %d):\n%s", code, stderr)
	}
}

// TestRawchanFindsSeededViolations checks the rawchan analyzer flags every
// raw item/frame channel in the fixture and nothing else.
func TestRawchanFindsSeededViolations(t *testing.T) {
	code, _, stderr := runVet(t, "testdata/src/rawchan")
	if code != 2 {
		t.Fatalf("want exit 2, got %d:\n%s", code, stderr)
	}
	lines := nonEmptyLines(stderr)
	if len(lines) != 4 {
		t.Fatalf("want 4 findings (two fields, make, param), got %d:\n%s", len(lines), stderr)
	}
	for _, l := range lines {
		if !strings.Contains(l, "raw chan item") && !strings.Contains(l, "raw chan frame") {
			t.Errorf("unexpected finding: %s", l)
		}
	}
}

// TestStreamDiscardFindsLeakyReturn checks exactly the undrained return is
// flagged: ok-guarded returns, Discard-preceded returns, deferred Discard
// and pure wiring functions all pass.
func TestStreamDiscardFindsLeakyReturn(t *testing.T) {
	code, _, stderr := runVet(t, "testdata/src/streamdiscard")
	if code != 2 {
		t.Fatalf("want exit 2, got %d:\n%s", code, stderr)
	}
	lines := nonEmptyLines(stderr)
	if len(lines) != 1 {
		t.Fatalf("want exactly 1 finding, got %d:\n%s", len(lines), stderr)
	}
	if !strings.Contains(lines[0], "leakyRun") || !strings.Contains(lines[0], "in.Discard()") {
		t.Errorf("finding should name leakyRun and the missing call: %s", lines[0])
	}
	if want := "bad.go:24:4"; !strings.Contains(lines[0], want) {
		t.Errorf("finding should point at the leaky return (%s): %s", want, lines[0])
	}
}

// TestBlockingSendFindsSeededViolations checks the run-loop send contract:
// exactly the two fire-and-forget sends are flagged; result-branched sends
// and writer-only helper functions pass.
func TestBlockingSendFindsSeededViolations(t *testing.T) {
	code, _, stderr := runVet(t, "testdata/src/blockingsend")
	if code != 2 {
		t.Fatalf("want exit 2, got %d:\n%s", code, stderr)
	}
	lines := nonEmptyLines(stderr)
	if len(lines) != 2 {
		t.Fatalf("want exactly 2 findings, got %d:\n%s", len(lines), stderr)
	}
	wants := []string{"out.send", "out.sendRecord"}
	for i, l := range lines {
		if !strings.Contains(l, "fireAndForgetRun") || !strings.Contains(l, wants[i]) {
			t.Errorf("finding %d should name fireAndForgetRun and %s: %s", i, wants[i], l)
		}
		if !strings.Contains(l, "result discarded") && !strings.Contains(l, "result of") {
			t.Errorf("finding %d should explain the discarded result: %s", i, l)
		}
	}
}

// TestReservedLitFindsSeededViolations checks prefix literals are flagged
// but mid-string prose mentions are not.
func TestReservedLitFindsSeededViolations(t *testing.T) {
	code, _, stderr := runVet(t, "testdata/src/reservedlit")
	if code != 2 {
		t.Fatalf("want exit 2, got %d:\n%s", code, stderr)
	}
	lines := nonEmptyLines(stderr)
	if len(lines) != 2 {
		t.Fatalf("want 2 findings, got %d:\n%s", len(lines), stderr)
	}
}

// TestRecordRetainFindsSeededViolations checks the arena-discipline
// analyzer: use-after-release, double release, mutate-after-emit and
// release-after-route are flagged; reassignment and branch-local drop
// paths are not.
func TestRecordRetainFindsSeededViolations(t *testing.T) {
	code, _, stderr := runVet(t, "testdata/src/recordretain")
	if code != 2 {
		t.Fatalf("want exit 2, got %d:\n%s", code, stderr)
	}
	lines := nonEmptyLines(stderr)
	if len(lines) != 4 {
		t.Fatalf("want 4 findings, got %d:\n%s", len(lines), stderr)
	}
	wants := []string{
		"used after release",
		"used after release",
		"after emit",
		"released after emit",
	}
	for i, l := range lines {
		if !strings.Contains(l, wants[i]) {
			t.Errorf("finding %d: want %q in %s", i, wants[i], l)
		}
	}
}

// TestFuseSafeFindsSeededViolations checks the stage-loop analyzer: go
// statements, channel plumbing and record retention inside step methods and
// segment* methods are flagged; the stages' sanctioned idioms (the Emitter
// src slot, keeping an output buffer's backing, handing every output on) and
// functions outside the scope pass.
func TestFuseSafeFindsSeededViolations(t *testing.T) {
	code, _, stderr := runVet(t, "testdata/src/fusesafe")
	if code != 2 {
		t.Fatalf("want exit 2, got %d:\n%s", code, stderr)
	}
	lines := nonEmptyLines(stderr)
	if len(lines) != 5 {
		t.Fatalf("want 5 findings, got %d:\n%s", len(lines), stderr)
	}
	wants := []string{
		"retained in field stash",
		"go statement in feedBad",
		"channel plumbing in feedBad",
		"retained in field parked",
		"retained in field last",
	}
	for i, l := range lines {
		if !strings.Contains(l, wants[i]) {
			t.Errorf("finding %d: want %q in %s", i, wants[i], l)
		}
	}
}

// TestJSONOutput checks the unitchecker-compatible JSON form: exit 0, all
// findings keyed by unit then analyzer.
func TestJSONOutput(t *testing.T) {
	code, stdout, _ := runVet(t, "-json", "testdata/src/reservedlit")
	if code != 0 {
		t.Fatalf("json mode must exit 0, got %d", code)
	}
	var out map[string]map[string][]struct{ Posn, Message string }
	if err := json.Unmarshal([]byte(stdout), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout)
	}
	unit := out["testdata/src/reservedlit"]
	if len(unit["reservedlit"]) != 2 {
		t.Fatalf("want 2 reservedlit diagnostics in JSON, got %+v", out)
	}
}

// TestVetCfgProtocol drives the go-vet side door by hand: a .cfg file
// describing the fixture package, a facts file the go command expects to
// exist afterwards, and the VetxOnly fast path.
func TestVetCfgProtocol(t *testing.T) {
	dir := t.TempDir()
	vetx := filepath.Join(dir, "out.vetx")
	goFile, err := filepath.Abs("testdata/src/reservedlit/bad.go")
	if err != nil {
		t.Fatal(err)
	}
	writeCfg := func(vetxOnly bool) string {
		cfg := map[string]any{
			"ImportPath": "example/reservedlit",
			"GoFiles":    []string{goFile},
			"VetxOnly":   vetxOnly,
			"VetxOutput": vetx,
		}
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "vet.cfg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	code, _, stderr := runVet(t, writeCfg(false))
	if code != 2 {
		t.Fatalf("want exit 2 on findings, got %d:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "example/reservedlit") && !strings.Contains(stderr, "bad.go") {
		t.Errorf("diagnostics missing position info:\n%s", stderr)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("facts file not written: %v", err)
	}

	if err := os.Remove(vetx); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = runVet(t, writeCfg(true))
	if code != 0 {
		t.Fatalf("VetxOnly must exit 0, got %d:\n%s", code, stderr)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("VetxOnly must still write the facts file: %v", err)
	}
}

// TestVersionAndFlagsHandshake checks the two query modes the go command
// uses before ever running the tool.
func TestVersionAndFlagsHandshake(t *testing.T) {
	code, stdout, _ := runVet(t, "-flags")
	if code != 0 || strings.TrimSpace(stdout) != "[]" {
		t.Errorf("-flags: exit %d, output %q", code, stdout)
	}
	code, stdout, _ = runVet(t, "-V=full")
	if code != 0 {
		t.Fatalf("-V=full: exit %d", code)
	}
	if !regexp.MustCompile(`^\S+ version devel comments-go-here buildID=[0-9a-f]{64}\n$`).MatchString(stdout) {
		t.Errorf("-V=full output %q does not match the handshake format", stdout)
	}
}

// TestGoVetEndToEnd builds the tool and runs it through the real
// `go vet -vettool` pipeline over the core package: the full protocol
// (version handshake, flag query, cfg files, vetx outputs) against the
// actual go command.
func TestGoVetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and vets packages")
	}
	bin := filepath.Join(t.TempDir(), "snetvet")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "repro/internal/core", "repro/internal/analysis")
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool: %v\n%s", err, out)
	}
}

func nonEmptyLines(s string) []string {
	var lines []string
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			lines = append(lines, l)
		}
	}
	return lines
}
