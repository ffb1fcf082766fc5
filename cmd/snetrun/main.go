// Command snetrun parses a textual S-Net program (the paper's notation),
// compiles it, and optionally runs the compiled plan — the same checked,
// fused program -check analyses — against a registry of built-in
// demonstration boxes, feeding records given on the command line.
//
// Usage:
//
//	snetrun [-net name] [-run] [-stream-batch B] [-record '{<n>=5}']... file.snet
//	snetrun -check [-json] [-budget N] [-net name] [-stream-batch B] file.snet...
//	snetrun -list           # show the built-in demo boxes
//
// -check is the static check.  It compiles every net of the given files
// (box implementations are stubbed, so any program type-checks without
// bindings) and runs the deadlock & boundedness verifier over it.  Per net
// it prints one headline — signature, deadlock-free or DEADLOCK-POSITIVE,
// the static memory bound under the default capacity assumptions, graph
// size and those assumptions — then the type errors and compile warnings,
// then every finding (dead arms, sync starvation, wait-for cycles, star
// divergence, unbounded splits) with its node path, .snet source position
// and, for a deadlock, the counterexample trace.  -budget N makes a finite
// bound above N records a capacity-overflow finding; -json emits the
// snet-verify/1 document instead of the text.  The exit status is nonzero
// iff a file cannot be read or parsed or defines no net, a net fails to
// build or type-check, is deadlock-positive or exceeds the budget, or -net
// matches no net.
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

type recordFlags []string

func (r *recordFlags) String() string     { return strings.Join(*r, " ") }
func (r *recordFlags) Set(s string) error { *r = append(*r, s); return nil }

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
		check   = fs.Bool("check", false, "static check of every net of the given file(s): type errors, deadlock verdict, memory bound, findings")
		jsonOut = fs.Bool("json", false, "with -check: emit the machine-readable "+verifySchema+" document")
		budget  = fs.Int64("budget", 0, "with -check: memory budget in records; a finite bound above it is a capacity-overflow finding")
		list    = fs.Bool("list", false, "list built-in demo boxes")
		batch   = fs.Int("stream-batch", 0, "stream batch size B (0: runtime default)")
		records recordFlags
	)
	fs.Var(&records, "record", "input record literal, e.g. '{<n>=5, name=abc}' (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, "inc dec double split2 echo")
		return nil
	}
	if *check {
		if fs.NArg() == 0 {
			return fmt.Errorf("usage: snetrun -check [-json] [-budget N] file.snet...")
		}
		caps := analysis.DefaultCaps()
		caps.MemoryBudget = *budget
		if *batch > 0 {
			caps.StreamBatch = *batch
		}
		return runCheck(fs.Args(), *netName, caps, *jsonOut, stdout)
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
	plan, cerr := lang.CompileNet(prog, name, workloads.DemoRegistry())
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
