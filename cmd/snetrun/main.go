// Command snetrun parses a textual S-Net program (the paper's notation),
// compiles it, and optionally runs the compiled plan — the same checked,
// fused program -check, -lint and -verify analyse — against a registry of
// built-in demonstration boxes, feeding records given on the command line.
//
// Usage:
//
//	snetrun [-net name] [-run] [-stream-batch B] [-record '{<n>=5}']... file.snet
//	snetrun -check [-lint[=strict]] file.snet...  # static diagnostics only
//	snetrun -verify [-json] [-budget N] file.snet...  # deadlock & boundedness verifier
//	snetrun -list           # show the built-in demo boxes
//
// -check compiles every net of the given files (snet.Compile through the
// language front end): box implementations are stubbed, so any program
// type-checks without bindings, and definite defects — unreachable parallel
// branches, unroutable record shapes, signature mismatches, missing split
// tags — are reported with their .snet source positions.
// The exit status is nonzero if any file has parse or type errors.
//
// -lint additionally runs the graph-level liveness analysis over every
// compiled net and prints its findings — sync starvation/deadlock, dead
// combinator arms, star divergence, unbounded split growth, marker
// hazards — as warnings with node paths and source positions.  -lint=strict
// makes findings count toward the nonzero exit status, the CI
// configuration.  -lint implies -check.
//
// -verify runs the whole-plan deadlock & boundedness verifier: for every
// net it reports whether the coordination structure is deadlock-free, the
// static memory high-water bound (records) under the default capacity
// assumptions, and a counterexample trace — the ordered chain of graph
// edges with their blocking fill states — for every deadlock-class finding.
// -budget N adds an admission check (finite bound above N records is a
// capacity-overflow finding); -json emits the snet-verify/1 document for
// machine consumption.  The exit status is nonzero iff any net fails to
// compile, is deadlock-positive, or exceeds the budget.
//
// Record literals accept tags (<t>=int) and string fields (name=text).
//
// Built-in demo boxes (bind any of these names in your program):
//
//	inc   (<n>) -> (<n>)                 n+1
//	dec   (<n>) -> (<n>) | (<n>,<done>)  n-1, <done> at 0
//	double(<n>) -> (<n>)                 n*2
//	split2(<n>) -> (<n>)                 emits n twice
//	echo  () -> ()                       forwards unchanged
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/workloads"
	"repro/snet"
	"repro/snet/lang"
)

// demoRegistry binds the built-in demonstration boxes.
func demoRegistry() *lang.Registry {
	reg := lang.NewRegistry()
	for name, fn := range workloads.DemoBoxes() {
		reg.RegisterFunc(name, fn)
	}
	return reg
}

type recordFlags []string

func (r *recordFlags) String() string     { return strings.Join(*r, " ") }
func (r *recordFlags) Set(s string) error { *r = append(*r, s); return nil }

// lintMode is the -lint flag: off by default, "-lint" warns, "-lint=strict"
// makes findings fail the run.
type lintMode int

const (
	lintOff lintMode = iota
	lintWarn
	lintStrict
)

func (m *lintMode) IsBoolFlag() bool { return true }

func (m *lintMode) String() string {
	switch *m {
	case lintWarn:
		return "true"
	case lintStrict:
		return "strict"
	}
	return "false"
}

func (m *lintMode) Set(s string) error {
	switch s {
	case "", "true", "on", "warn":
		*m = lintWarn
	case "strict":
		*m = lintStrict
	case "false", "off":
		*m = lintOff
	default:
		return fmt.Errorf("-lint accepts nothing, =strict or =off, not %q", s)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "snetrun:", err)
		os.Exit(1)
	}
}

// run is the testable command body: parse flags and the program, build the
// requested net, and optionally execute it over the -record inputs.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("snetrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		netName = fs.String("net", "", "net to build (default: last net in the file)")
		doRun   = fs.Bool("run", false, "run the network on the given -record inputs")
		check   = fs.Bool("check", false, "compile-only static diagnostics for every net of the given file(s)")
		verify  = fs.Bool("verify", false, "run the deadlock & boundedness verifier over every net of the given file(s)")
		jsonOut = fs.Bool("json", false, "with -verify: emit the machine-readable "+verifySchema+" document")
		budget  = fs.Int64("budget", 0, "with -verify: memory budget in records; a finite bound above it is a capacity-overflow finding")
		list    = fs.Bool("list", false, "list built-in demo boxes")
		batch   = fs.Int("stream-batch", 0, "stream batch size B (0: runtime default)")
		records recordFlags
		lint    lintMode
	)
	fs.Var(&records, "record", "input record literal, e.g. '{<n>=5, name=abc}' (repeatable)")
	fs.Var(&lint, "lint", "with -check: run the liveness analysis and print findings (=strict: findings fail the run)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, "inc dec double split2 echo")
		return nil
	}
	if *verify {
		if fs.NArg() == 0 {
			return fmt.Errorf("usage: snetrun -verify [-json] [-budget N] file.snet...")
		}
		caps := analysis.DefaultCaps()
		caps.MemoryBudget = *budget
		if *batch > 0 {
			caps.StreamBatch = *batch
		}
		return runVerify(fs.Args(), *netName, caps, *jsonOut, stdout)
	}
	if *check || lint != lintOff {
		if fs.NArg() == 0 {
			return fmt.Errorf("usage: snetrun -check [-lint[=strict]] file.snet...")
		}
		return runCheck(fs.Args(), *netName, lint, stdout)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: snetrun [-net name] [-run] [-record {...}]... file.snet")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "parsed:")
	fmt.Fprint(stdout, prog)

	name := *netName
	if name == "" {
		if len(prog.Nets) == 0 {
			return fmt.Errorf("no net definitions in %s", fs.Arg(0))
		}
		name = prog.Nets[len(prog.Nets)-1].Name
	}
	plan, cerr := lang.CompileNet(prog, name, demoRegistry())
	if plan == nil {
		return cerr
	}
	fmt.Fprintf(stdout, "\nnet %s : %v -> %v\n", name, plan.In(), plan.Out())
	for _, te := range plan.TypeErrors() {
		fmt.Fprintln(stdout, "  ", te)
	}
	for _, d := range plan.Warnings() {
		fmt.Fprintln(stdout, "  ", d)
	}
	if cerr != nil {
		return cerr
	}
	if !*doRun {
		return nil
	}

	inputs := make([]*snet.Record, 0, len(records))
	for _, lit := range records {
		r, err := parseRecord(lit)
		if err != nil {
			return err
		}
		inputs = append(inputs, r)
	}
	var opts []snet.Option
	opts = append(opts, snet.WithErrorHandler(func(e error) { fmt.Fprintln(stderr, "runtime:", e) }))
	if *batch > 0 {
		opts = append(opts, snet.WithStreamBatch(*batch))
	}
	results, stats, err := plan.RunAll(context.Background(), inputs, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%d output records:\n", len(results))
	for _, r := range results {
		fmt.Fprintln(stdout, "  ", r)
	}
	fmt.Fprintln(stdout, "\nstatistics:")
	snap := stats.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "  %-40s %d\n", k, snap[k])
	}
	return nil
}

// stubBoxes registers a no-op implementation for every box declared in the
// program (including net bodies), so -check type-checks programs whose
// boxes have no Go bindings: the compile phase only consumes signatures.
func stubBoxes(prog *lang.Program, reg *lang.Registry) {
	stub := func(args []any, out *snet.Emitter) error { return nil }
	var walk func(p *lang.Program)
	walk = func(p *lang.Program) {
		for _, bd := range p.Boxes {
			reg.RegisterFunc(bd.Name, stub)
		}
		for _, nd := range p.Nets {
			if nd.Body != nil {
				walk(nd.Body)
			}
		}
	}
	walk(prog)
}

// runCheck is the -check mode: compile every net (or just -net) of each
// file and print the static diagnostics — and, with -lint, the liveness
// analysis findings.  Every file is reported even when an earlier one has
// errors; the returned error is non-nil iff any file failed to parse or
// compile (or, under -lint=strict, had findings).
func runCheck(files []string, netName string, lint lintMode, stdout io.Writer) error {
	bad, matched := 0, 0
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			// Report and keep going: later files still get their findings.
			fmt.Fprintf(stdout, "%s: %v\n", path, err)
			bad++
			continue
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			fmt.Fprintf(stdout, "%s: %v\n", path, err)
			bad++
			continue
		}
		reg := demoRegistry()
		stubBoxes(prog, reg)
		checked := 0
		for _, nd := range prog.Nets {
			if netName != "" && nd.Name != netName {
				continue
			}
			checked++
			var plan *snet.Plan
			var cerr error
			var rep *analysis.Report
			if lint != lintOff {
				plan, rep, cerr = lang.AnalyzeNet(prog, nd.Name, reg)
			} else {
				plan, cerr = lang.CompileNet(prog, nd.Name, reg)
			}
			if plan == nil {
				fmt.Fprintf(stdout, "%s: net %s: %v\n", path, nd.Name, cerr)
				bad++
				continue
			}
			fmt.Fprintf(stdout, "%s: net %s : %v -> %v\n", path, nd.Name, plan.In(), plan.Out())
			for _, te := range plan.TypeErrors() {
				fmt.Fprintf(stdout, "%s: %v\n", path, te)
				bad++
			}
			for _, d := range plan.Warnings() {
				fmt.Fprintf(stdout, "%s:   %s\n", path, d)
			}
			if rep != nil {
				for _, f := range rep.Findings {
					fmt.Fprintf(stdout, "%s: %v\n", path, f)
					if lint == lintStrict {
						bad++
					}
				}
			}
		}
		matched += checked
		// A file without any net definition is a problem; with -net, a file
		// simply lacking that name is fine as long as some file has it.
		if checked == 0 && netName == "" {
			fmt.Fprintf(stdout, "%s: no net definitions\n", path)
			bad++
		}
	}
	if netName != "" && matched == 0 {
		fmt.Fprintf(stdout, "no net named %q in the given file(s)\n", netName)
		bad++
	}
	if bad > 0 {
		return fmt.Errorf("%d problem(s) found", bad)
	}
	return nil
}

// parseRecord reads a record literal: {<tag>=int, field=string, ...}.
func parseRecord(lit string) (*snet.Record, error) {
	s := strings.TrimSpace(lit)
	if !strings.HasPrefix(s, "{") || !strings.HasSuffix(s, "}") {
		return nil, fmt.Errorf("record literal must be braced: %q", lit)
	}
	rec := snet.NewRecord()
	body := strings.TrimSpace(s[1 : len(s)-1])
	if body == "" {
		return rec, nil
	}
	for _, part := range strings.Split(body, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad record item %q", part)
		}
		key, val := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		if strings.HasPrefix(key, "<") && strings.HasSuffix(key, ">") {
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("tag %s needs an integer, got %q", key, val)
			}
			rec.SetTag(key[1:len(key)-1], n)
		} else {
			rec.SetField(key, val)
		}
	}
	return rec, nil
}
