package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// countdown is a tiny end-to-end program over the built-in demo boxes: inc
// feeds a deterministic star of dec that emits <done> at zero.
const countdown = `
box inc (<n>) -> (<n>);
box dec (<n>) -> (<n>) | (<n>, <done>);
net countdown connect inc .. (dec ** {<done>});
`

func writeProgram(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.snet")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCountdownEndToEnd(t *testing.T) {
	path := writeProgram(t, countdown)
	var stdout, stderr strings.Builder
	err := run([]string{"-run", "-record", "{<n>=3}", "-record", "{<n>=1}", path},
		&stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"parsed:",
		"net countdown",
		"2 output records:",
		"{<done>=1, <n>=0}",
		"box.inc.calls",
		".depth.max", // high-water marks are statistics too
		"box.inc.inflight.max",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunStreamBatchFlag(t *testing.T) {
	path := writeProgram(t, countdown)
	var stdout, stderr strings.Builder
	err := run([]string{"-run", "-stream-batch", "64", "-record", "{<n>=5}", path},
		&stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stdout.String(), "1 output records:") {
		t.Errorf("expected one output record:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "stream.frames") {
		t.Errorf("expected transport counters in statistics:\n%s", stdout.String())
	}
}

func TestRunTypecheckOnly(t *testing.T) {
	path := writeProgram(t, countdown)
	var stdout, stderr strings.Builder
	if err := run([]string{path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stdout.String(), "output records") {
		t.Error("should not run without -run")
	}
	if !strings.Contains(stdout.String(), "net countdown :") {
		t.Errorf("missing inferred type line:\n%s", stdout.String())
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr strings.Builder
	if err := run([]string{"/nonexistent/x.snet"}, &stdout, &stderr); err == nil {
		t.Error("expected error for missing file")
	}
	bad := writeProgram(t, "net broken connect ;;;")
	if err := run([]string{bad}, &stdout, &stderr); err == nil {
		t.Error("expected parse error")
	}
	if err := run([]string{}, &stdout, &stderr); err == nil {
		t.Error("expected usage error with no arguments")
	}
	// Run mode executes the compiled plan, so it refuses what -check rejects.
	unreachable := writeProgram(t, `box inc (<n>) -> (<n>);
box double (<n>,<m>) -> (<n>);
net main connect inc .. (inc || double);
`)
	stdout.Reset()
	if err := run([]string{"-run", "-record", "{<n>=1}", unreachable}, &stdout, &stderr); err == nil {
		t.Error("expected run mode to refuse a net with an unreachable branch")
	}
	if out := stdout.String(); !strings.Contains(out, "unreachable-branch") || strings.Contains(out, "output records") {
		t.Errorf("run mode should report the type error and not run:\n%s", out)
	}
}

// -check on a clean program prints the inferred signatures and succeeds.
func TestCheckCleanProgram(t *testing.T) {
	path := writeProgram(t, countdown)
	var stdout, stderr strings.Builder
	if err := run([]string{"-check", path}, &stdout, &stderr); err != nil {
		t.Fatalf("run -check: %v (out: %s)", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "net countdown : {<n>} -> {<done>}") {
		t.Fatalf("output %q missing the inferred signature", stdout.String())
	}
}

// -check stubs box implementations (no registry bindings needed) and
// reports definite type errors with their source positions.
func TestCheckReportsTypeErrorsWithPositions(t *testing.T) {
	src := `box produce (n) -> (a,b);
box eatAB (a,b) -> (r);
box eatAC (a,c) -> (r);

net main connect
  produce .. (eatAB || eatAC);
`
	path := writeProgram(t, src)
	var stdout, stderr strings.Builder
	err := run([]string{"-check", path}, &stdout, &stderr)
	if err == nil {
		t.Fatalf("run -check accepted a net with an unreachable branch (out: %s)", stdout.String())
	}
	out := stdout.String()
	for _, want := range []string{"unreachable-branch", "3:1", "branch[1]", "eatAC"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output %q missing %q", out, want)
		}
	}
}

// -check accepts several files at once (the CI smoke step shape).
func TestCheckMultipleFiles(t *testing.T) {
	a := writeProgram(t, countdown)
	b := writeProgram(t, "box double (<n>) -> (<n>);\nnet twice connect double .. double;\n")
	var stdout, stderr strings.Builder
	if err := run([]string{"-check", a, b}, &stdout, &stderr); err != nil {
		t.Fatalf("run -check: %v (out: %s)", err, stdout.String())
	}
	if got := strings.Count(stdout.String(), "net "); got != 2 {
		t.Fatalf("expected 2 net reports, got %d:\n%s", got, stdout.String())
	}
}

// -check -net over several files succeeds when the named net exists in any
// of them, and fails when it exists in none.
func TestCheckNamedNetAcrossFiles(t *testing.T) {
	a := writeProgram(t, countdown)
	b := writeProgram(t, "box double (<n>) -> (<n>);\nnet twice connect double .. double;\n")
	var stdout, stderr strings.Builder
	if err := run([]string{"-check", "-net", "countdown", a, b}, &stdout, &stderr); err != nil {
		t.Fatalf("run -check -net: %v (out: %s)", err, stdout.String())
	}
	stdout.Reset()
	if err := run([]string{"-check", "-net", "nosuch", a, b}, &stdout, &stderr); err == nil {
		t.Fatalf("run -check -net nosuch succeeded (out: %s)", stdout.String())
	}
}

// deadlocked is a program whose synchrocell's second join pattern can never
// be filled — a lint finding, not a type error.
const deadlocked = `
box gen (<seed>) -> (a, <k>);
box useBoth (a, b, <k>) -> (done);
net deadsync connect gen .. [| {a, <k>}, {b, <k>} |] .. useBoth;
`

// TestCheckReportsAllFilesAfterError pins the multi-file contract: an
// unreadable (or broken) early file must not stop -check from reporting the
// later ones — all files are reported, then the run exits nonzero.
func TestCheckReportsAllFilesAfterError(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no_such.snet")
	good := writeProgram(t, countdown)
	var stdout, stderr strings.Builder
	err := run([]string{"-check", missing, good}, &stdout, &stderr)
	if err == nil {
		t.Fatal("want nonzero result for the unreadable file")
	}
	out := stdout.String()
	if !strings.Contains(out, "no_such.snet") {
		t.Errorf("missing file not reported:\n%s", out)
	}
	if !strings.Contains(out, "net countdown") {
		t.Errorf("later file was not checked after the early error:\n%s", out)
	}
}

func TestCheckLintWarnsWithoutFailing(t *testing.T) {
	path := writeProgram(t, deadlocked)
	var stdout, stderr strings.Builder
	if err := run([]string{"-check", "-lint", path}, &stdout, &stderr); err != nil {
		t.Fatalf("-lint (warn mode) must not fail the run: %v\n%s", err, stdout.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "[sync-starvation]") {
		t.Errorf("missing sync-starvation finding:\n%s", out)
	}
	if !strings.Contains(out, "{b, <k>}") {
		t.Errorf("finding does not name the starving pattern:\n%s", out)
	}
}

func TestCheckLintStrictFails(t *testing.T) {
	path := writeProgram(t, deadlocked)
	var stdout, stderr strings.Builder
	err := run([]string{"-check", "-lint=strict", path}, &stdout, &stderr)
	if err == nil {
		t.Fatalf("-lint=strict must fail on findings:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "[sync-starvation]") {
		t.Errorf("missing finding before the failure:\n%s", stdout.String())
	}
}

func TestLintImpliesCheck(t *testing.T) {
	path := writeProgram(t, countdown)
	var stdout, stderr strings.Builder
	if err := run([]string{"-lint", path}, &stdout, &stderr); err != nil {
		t.Fatalf("-lint alone should enter check mode: %v", err)
	}
	if !strings.Contains(stdout.String(), "net countdown") {
		t.Errorf("check output missing:\n%s", stdout.String())
	}
}
