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

// -check accepts several files at once (the CI smoke step shape), and every
// program the repository ships is deadlock-free with a finite bound.
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
	shipped, err := filepath.Glob("../../examples/*/*.snet")
	if err != nil || len(shipped) != 4 {
		t.Fatalf("want the 4 example programs, got %v (%v)", shipped, err)
	}
	shipped = append(shipped, "../snetd/testdata/countdown.snet")
	stdout.Reset()
	if err := run(append([]string{"-check"}, shipped...), &stdout, &stderr); err != nil {
		t.Fatalf("run -check over the shipped programs: %v (out: %s)", err, stdout.String())
	}
	if got := strings.Count(stdout.String(), ": deadlock-free; memory bound "); got != 5 {
		t.Fatalf("want 5 deadlock-free headlines with a finite bound, got %d:\n%s", got, stdout.String())
	}
}

// -check -net over several files succeeds when the named net exists in any
// of them, and fails when it exists in none — in text and in -json.
func TestCheckNamedNetAcrossFiles(t *testing.T) {
	a := writeProgram(t, countdown)
	b := writeProgram(t, "box double (<n>) -> (<n>);\nnet twice connect double .. double;\n")
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{[]string{"-check", "-net", "countdown", a, b}, true},
		{[]string{"-check", "-json", "-net", "countdown", a, b}, true},
		{[]string{"-check", "-net", "nosuch", a, b}, false},
		{[]string{"-check", "-json", "-net", "nosuch", a, b}, false},
	} {
		var stdout, stderr strings.Builder
		if err := run(tc.args, &stdout, &stderr); (err == nil) != tc.ok {
			t.Errorf("%v: err = %v, want ok %v (out: %s)", tc.args, err, tc.ok, stdout.String())
		}
	}
}

// deadlocked is a program whose synchrocell's second join pattern can never
// be filled — a deadlock-positive verdict, not a type error.
const deadlocked = `
box gen (<seed>) -> (a, <k>);
box useBoth (a, b, <k>) -> (done);
net deadsync connect gen .. [| {a, <k>}, {b, <k>} |] .. useBoth;
`

// TestCheckReportsAllFilesAfterError pins the multi-file contract: an
// unreadable (or broken, or net-less) early file must not stop -check from
// reporting the later ones — all files are reported, then the run exits
// nonzero, in text and in -json.
func TestCheckReportsAllFilesAfterError(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no_such.snet")
	boxOnly := writeProgram(t, "box double (<n>) -> (<n>);\n")
	good := writeProgram(t, countdown)
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-check", missing, good}, []string{"no_such.snet", "net countdown"}},
		{[]string{"-check", "-json", missing, good}, []string{"no_such.snet", `"net": "countdown"`}},
		{[]string{"-check", boxOnly, good}, []string{"no net definitions", "net countdown"}},
		{[]string{"-check", "-json", boxOnly, good}, []string{`"error": "no net definitions"`, `"net": "countdown"`}},
	} {
		var stdout, stderr strings.Builder
		if err := run(tc.args, &stdout, &stderr); err == nil {
			t.Errorf("%v: want nonzero result for the bad file", tc.args)
		}
		for _, want := range tc.want {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%v: output misses %q:\n%s", tc.args, want, stdout.String())
			}
		}
	}
}

// deadArm is a program whose only finding is a dead parallel arm: the
// analysis reports it, and a dead arm is neither a deadlock nor a type
// error, so -check prints it and succeeds.
const deadArm = `
box gen (<s>) -> (a, <k>) | (b, <k>);
box join2 (a, b, <k>) -> (res);
box onRes (res) -> (out);
box onNever (nope) -> (out);
net deadarm connect gen .. [| {a, <k>}, {b, <k>} |] .. join2 .. (onRes || onNever);
`

func TestCheckLintWarnsWithoutFailing(t *testing.T) {
	path := writeProgram(t, deadArm)
	var stdout, stderr strings.Builder
	if err := run([]string{"-check", path}, &stdout, &stderr); err != nil {
		t.Fatalf("a dead arm must not fail the run: %v\n%s", err, stdout.String())
	}
	out := stdout.String()
	for _, want := range []string{": deadlock-free;", "lint [dead-arm] at ", "parallel branch onNever is dead"} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
}

func TestCheckLintStrictFails(t *testing.T) {
	path := writeProgram(t, deadlocked)
	var stdout, stderr strings.Builder
	err := run([]string{"-check", path}, &stdout, &stderr)
	if err == nil {
		t.Fatalf("a deadlock-positive net must fail -check:\n%s", stdout.String())
	}
	out := stdout.String()
	for _, want := range []string{"DEADLOCK-POSITIVE", "[sync-starvation]", "{b, <k>}"} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q before the failure:\n%s", want, out)
		}
	}
}
