package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/workloads"
	"repro/snet/lang"
)

// cyclic seeds a wait-for cycle: the only producer of the "b" half of
// the join is downstream of the synchrocell itself.
const cyclic = `
box gen (<seed>) -> (a, <k>);
box toB (a, <k>) -> (b, <k>);
net deadcycle connect gen .. [| {a, <k>}, {b, <k>} |] .. toB;
`

func TestVerifyCleanProgram(t *testing.T) {
	path := writeProgram(t, countdown)
	var stdout, stderr strings.Builder
	if err := run([]string{"-check", path}, &stdout, &stderr); err != nil {
		t.Fatalf("verify: %v\n%s", err, stdout.String())
	}
	out := stdout.String()
	for _, want := range []string{"net countdown", "deadlock-free", "memory bound", "stream edges"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestVerifyDeadlockFailsWithTrace(t *testing.T) {
	path := writeProgram(t, cyclic)
	var stdout, stderr strings.Builder
	err := run([]string{"-check", path}, &stdout, &stderr)
	if err == nil {
		t.Fatalf("deadlock-positive program must fail -check:\n%s", stdout.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"DEADLOCK-POSITIVE",
		"[deadlock-cycle]",
		"trace[0]",
		"the wait-for cycle closes here",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Every finding, trace included, prints as analysis.Finding renders it.
	prog := lang.MustParse(cyclic)
	reg := workloads.DemoRegistry()
	stubBoxes(prog, reg)
	_, rep, _ := lang.AnalyzeNetWithCaps(prog, "deadcycle", reg, analysis.DefaultCaps())
	counterPat := regexp.MustCompile(`#\d+`)
	for _, f := range rep.Findings {
		if want := counterPat.ReplaceAllString(path+": "+f.String()+"\n", "#n"); !strings.Contains(counterPat.ReplaceAllString(out, "#n"), want) {
			t.Errorf("output misses the finding as Finding.String renders it:\n%s\nin:\n%s", want, out)
		}
	}
}

func TestVerifyBudgetOverflow(t *testing.T) {
	path := writeProgram(t, countdown)
	var stdout, stderr strings.Builder
	err := run([]string{"-check", "-budget", "10", path}, &stdout, &stderr)
	if err == nil {
		t.Fatalf("a 10-record budget must overflow:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "[capacity-overflow]") {
		t.Errorf("output missing capacity-overflow finding:\n%s", stdout.String())
	}
	// The same program passes with a generous budget.
	stdout.Reset()
	if err := run([]string{"-check", "-budget", "100000000", path}, &stdout, &stderr); err != nil {
		t.Fatalf("generous budget must pass: %v\n%s", err, stdout.String())
	}
}

// TestVerifyJSONSchema decodes the -json document with unknown fields
// disallowed: the emitted output must match the declared snet-verify/1
// schema structures exactly.
func TestVerifyJSONSchema(t *testing.T) {
	clean := writeProgram(t, countdown)
	bad := writeProgram(t, cyclic)
	var stdout, stderr strings.Builder
	err := run([]string{"-check", "-json", clean, bad}, &stdout, &stderr)
	if err == nil {
		t.Fatal("mixed input with a deadlock must exit nonzero")
	}
	dec := json.NewDecoder(bytes.NewReader([]byte(stdout.String())))
	dec.DisallowUnknownFields()
	var out verifyOutput
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("schema violation: %v\n%s", err, stdout.String())
	}
	if out.Schema != verifySchema {
		t.Errorf("schema = %q, want %q", out.Schema, verifySchema)
	}
	if out.OK {
		t.Error("ok must be false with a deadlock-positive net")
	}
	if len(out.Files) != 2 {
		t.Fatalf("want 2 files, got %d", len(out.Files))
	}
	cn := out.Files[0].Nets[0]
	if !cn.DeadlockFree || cn.Bound == nil || !cn.Bound.Finite || cn.Bound.Total <= 0 {
		t.Errorf("countdown: want deadlock-free finite bound, got %+v", cn)
	}
	dn := out.Files[1].Nets[0]
	if dn.DeadlockFree {
		t.Errorf("deadcycle: want deadlock-positive, got %+v", dn)
	}
	found := false
	for _, f := range dn.Findings {
		if f.Code == "deadlock-cycle" && len(f.Trace) >= 2 {
			found = true
			for _, s := range f.Trace {
				if s.Path == "" || s.State == "" {
					t.Errorf("trace step missing path/state: %+v", s)
				}
			}
		}
	}
	if !found {
		t.Errorf("no deadlock-cycle finding with a ≥2-step trace in %+v", dn.Findings)
	}
}

// TestVerifyByteIdenticalAcrossRuns pins the determinism satellite: three
// verifier passes over the same program emit the same document modulo the
// process-global combinator counter in auto-generated node names.
func TestVerifyByteIdenticalAcrossRuns(t *testing.T) {
	counterPat := regexp.MustCompile(`#\d+`)
	path := writeProgram(t, cyclic)
	var first string
	for i := 0; i < 3; i++ {
		var stdout, stderr strings.Builder
		_ = run([]string{"-check", "-json", path}, &stdout, &stderr)
		got := counterPat.ReplaceAllString(stdout.String(), "#n")
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, got, first)
		}
	}
}
