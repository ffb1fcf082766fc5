package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/workloads"
	"repro/snet"
	"repro/snet/lang"
	"repro/snet/service"
	"repro/sudoku"
)

// lintOut receives the registration-time verdicts.  The daemon keeps
// serving with findings present — they are coordination hazards (dead arms,
// unbounded replication), not the definite type errors that refuse startup —
// but they belong in the log before the first session opens, not in a
// debugging session afterwards.
var lintOut io.Writer = os.Stderr

// logVerdict logs a network's deadlock & boundedness verdict, then every
// finding as analysis.Finding renders it.  A nil report (a builder that
// failed) logs nothing.
func logVerdict(name string, rep *analysis.Report) {
	if rep == nil {
		return
	}
	if rep.DeadlockFree() {
		fmt.Fprintf(lintOut, "snetd: net %s: verified deadlock-free, static memory bound %s\n",
			name, rep.Bound)
	} else {
		fmt.Fprintf(lintOut, "snetd: net %s: DEADLOCK-POSITIVE\n", name)
	}
	for _, f := range rep.Findings {
		fmt.Fprintf(lintOut, "snetd: net %s: %v\n", name, f)
	}
}

// boardCodec is the wire codec of the sudoku networks: the "board" field
// travels as the conventional 81-character single-line form ('.' or '0'
// for empty cells); the "opts" field (the paper's bool[N,N,N] option cube)
// is runtime-internal and elided from responses.
type boardCodec struct{}

func (boardCodec) Decode(w service.RecordJSON) (*snet.Record, error) {
	r := snet.AcquireRecord()
	for k, v := range w.Tags {
		r.SetTag(k, v)
	}
	for k, v := range w.Fields {
		if k == "board" {
			b, err := sudoku.Parse(v)
			if err != nil {
				snet.ReleaseRecord(r)
				return nil, err
			}
			r.SetField("board", b)
			continue
		}
		r.SetField(k, v)
	}
	return r, nil
}

func (boardCodec) Encode(r *snet.Record) service.RecordJSON {
	c := r.Copy()
	c.DeleteField("opts")
	for _, k := range c.FieldNames() {
		if v, _ := c.Field(k); v != nil {
			if b, ok := v.(*sudoku.Board); ok {
				c.SetField(k, boardString(b))
			}
		}
	}
	return service.GenericCodec{}.Encode(c)
}

// boardString renders a 9×9 board in the 81-character wire form; bigger
// boards fall back to the multi-line rendering.
func boardString(b *sudoku.Board) string {
	N := b.N()
	if N != 9 {
		return b.String()
	}
	var sb strings.Builder
	for i := 0; i < N; i++ {
		for j := 0; j < N; j++ {
			sb.WriteByte(byte('0' + b.Get(i, j)))
		}
	}
	return sb.String()
}

// registerSudokuNets registers the three solver networks of Figures 1–3.
func registerSudokuNets(svc *service.Service, opts service.Options, cfg config) {
	mk := func(build func(sudoku.NetConfig) snet.Node) service.Builder {
		return func(o service.Options) (snet.Node, error) {
			return build(sudoku.NetConfig{
				Pool:      o.Pool,
				Throttle:  cfg.throttle,
				ExitLevel: cfg.level,
				Det:       cfg.det,
			}), nil
		}
	}
	reg := func(name, desc string, build service.Builder) {
		logVerdict(name, svc.Register(name, desc, opts, build, boardCodec{}).Verify())
	}
	reg("fig1", "Fig. 1: computeOpts .. (solveOneLevel ** {<done>})",
		mk(sudoku.Fig1Net))
	reg("fig2", "Fig. 2: (solveOneLevel !! <k>) ** {<done>} (full unfolding)",
		mk(sudoku.Fig2Net))
	reg("fig3",
		fmt.Sprintf("Fig. 3: throttled unfolding (m=%d, exit level %d, terminal solve)", cfg.throttle, cfg.level),
		mk(sudoku.Fig3Net))
}

// registerWorkloadNets registers the benchmark-suite networks that work
// over the generic wire codec: the webpipe request/response pipeline (the
// E19 workload — string fields throughout) and the wavefront grid (driven
// by a single {start} record whose field value the boxes never read).  The
// divide-and-conquer workload stays example-only: its segments are []int
// fields with no wire form.
func registerWorkloadNets(svc *service.Service, opts service.Options) {
	logVerdict("webpipe", svc.Register("webpipe",
		"request/response workload: classify .. (api || page || asset) .. render (E19)",
		opts, func(service.Options) (snet.Node, error) {
			return workloads.WebPipeNet(), nil
		}, nil).Verify())
	logVerdict("wavefront", svc.Register("wavefront",
		"wavefront workload: 64×64 dependency grid of synchrocell joins (E17)",
		opts, func(service.Options) (snet.Node, error) {
			return workloads.WavefrontNet(64, 61), nil
		}, nil).Verify())
}

// registerLangNets parses a textual S-Net program and registers every net
// it defines, bound against the demo box registry, under its own name.
// Deadlock-positive nets — those the verifier flags with sync starvation,
// wait-for cycles or unbounded replication — refuse registration unless
// allowDeadlock (snetd -allow-deadlock) is set, in which case they are
// served with the counterexample logged.
func registerLangNets(svc *service.Service, opts service.Options, path string, allowDeadlock bool) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		return err
	}
	if len(prog.Nets) == 0 {
		return fmt.Errorf("no net definitions in %s", path)
	}
	reg := workloads.DemoRegistry()
	for _, decl := range prog.Nets {
		name := decl.Name
		if _, err := svc.Network(name); err == nil {
			return fmt.Errorf("net %q in %s collides with an already registered network", name, path)
		}
		// Compile and verify now: unbound boxes and definite type errors
		// (unreachable branches, unroutable shapes, missing split tags)
		// refuse startup with their .snet source positions, instead of
		// surfacing as runtime routing failures mid-session, and the
		// findings carry those positions too — which the service's own
		// compile on first Open, cached for every session, cannot give.
		_, rep, err := lang.AnalyzeNetWithCaps(prog, name, reg, analysis.DefaultCaps())
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		logVerdict(name, rep)
		if rep != nil && !rep.DeadlockFree() && !allowDeadlock {
			return fmt.Errorf("%s: net %s is deadlock-positive (see the counterexample traces above); refusing registration — override with -allow-deadlock", path, name)
		}
		svc.Register(name, "from "+path, opts,
			func(service.Options) (snet.Node, error) {
				return lang.Build(prog, name, reg)
			}, nil)
	}
	return nil
}
