package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/workloads"
	"repro/snet/lang"
)

// verifySchema versions the -check -json output; consumers must reject
// schemas they do not know.
const verifySchema = "snet-verify/1"

// verifyOutput is the top-level -check -json document.
type verifyOutput struct {
	Schema string       `json:"schema"`
	Files  []verifyFile `json:"files"`
	OK     bool         `json:"ok"`
}

type verifyFile struct {
	Path  string      `json:"path"`
	Error string      `json:"error,omitempty"` // read or parse failure, or no net definitions
	Nets  []verifyNet `json:"nets,omitempty"`
}

type verifyNet struct {
	Net          string          `json:"net"`
	DeadlockFree bool            `json:"deadlockFree"`
	Bound        *analysis.Bound `json:"bound,omitempty"`
	Caps         analysis.Caps   `json:"caps"`
	Nodes        int             `json:"nodes"`
	Edges        int             `json:"edges"`
	TypeErrors   []string        `json:"typeErrors,omitempty"`
	Findings     []verifyFinding `json:"findings,omitempty"`
}

type verifyFinding struct {
	Code    string               `json:"code"`
	Path    string               `json:"path"`
	Node    string               `json:"node"`
	Variant string               `json:"variant,omitempty"`
	Msg     string               `json:"msg"`
	Pos     string               `json:"pos,omitempty"`
	Exact   bool                 `json:"exact"`
	Trace   []analysis.TraceStep `json:"trace,omitempty"`
}

// runCheck is the -check mode, the one static check (see the package doc):
// it compiles and analyses every net (or just netName) of each file under
// caps and prints the verdicts, or with jsonOut the snet-verify/1 document.
// Every file is reported even after an earlier one failed; the error is
// non-nil iff the exit status must be nonzero.
func runCheck(files []string, netName string, caps analysis.Caps, jsonOut bool, stdout io.Writer) error {
	out := verifyOutput{Schema: verifySchema}
	txt := stdout
	if jsonOut {
		txt = io.Discard
	}
	bad, matched := 0, 0
	for _, path := range files {
		vf := verifyFile{Path: path}
		src, err := os.ReadFile(path)
		var prog *lang.Program
		if err == nil {
			prog, err = lang.Parse(string(src))
		}
		if err == nil && len(prog.Nets) == 0 {
			err = errors.New("no net definitions")
		}
		if err != nil {
			// Report and keep going: later files still get their verdicts.
			vf.Error = err.Error()
			fmt.Fprintf(txt, "%s: %s\n", path, vf.Error)
			out.Files = append(out.Files, vf)
			bad++
			continue
		}
		reg := workloads.DemoRegistry()
		stubBoxes(prog, reg)
		for _, nd := range prog.Nets {
			if netName != "" && nd.Name != netName {
				continue
			}
			matched++
			vn := verifyNet{Net: nd.Name, Caps: caps}
			plan, rep, cerr := lang.AnalyzeNetWithCaps(prog, nd.Name, reg, caps)
			if plan == nil {
				fmt.Fprintf(txt, "%s: net %s: %v\n", path, nd.Name, cerr)
				vn.TypeErrors = []string{fmt.Sprint(cerr)}
				vf.Nets = append(vf.Nets, vn)
				bad++
				continue
			}
			vn.DeadlockFree, vn.Bound, vn.Nodes, vn.Edges = rep.DeadlockFree(), rep.Bound, rep.Nodes, rep.Edges
			verdict, bound := "DEADLOCK-POSITIVE", "no finite memory bound"
			if vn.DeadlockFree {
				verdict = "deadlock-free"
			} else {
				bad++
			}
			if vn.Bound != nil && vn.Bound.Finite {
				bound = "memory bound " + vn.Bound.String()
			}
			fmt.Fprintf(txt, "%s: net %s : %v -> %v: %s; %s; %d nodes, %d stream edges (buffer %d, batch %d, %d workers, %d replicas/site)\n",
				path, nd.Name, plan.In(), plan.Out(), verdict, bound, vn.Nodes, vn.Edges,
				caps.StreamBuffer, caps.StreamBatch, caps.BoxWorkers, caps.SplitWidth)
			for _, te := range plan.TypeErrors() {
				fmt.Fprintf(txt, "%s: %v\n", path, te)
				vn.TypeErrors = append(vn.TypeErrors, te.Error())
				bad++
			}
			for _, d := range plan.Warnings() {
				fmt.Fprintf(txt, "%s:   %s\n", path, d)
			}
			for _, f := range rep.Findings {
				fmt.Fprintf(txt, "%s: %v\n", path, f)
				vn.Findings = append(vn.Findings, verifyFinding{
					Code:    f.Code,
					Path:    f.Path,
					Node:    f.Node,
					Variant: f.Variant.String(),
					Msg:     f.Msg,
					Pos:     f.Pos,
					Exact:   f.Exact,
					Trace:   f.Trace,
				})
				if f.Code == analysis.CodeCapacityOverflow {
					bad++
				}
			}
			vf.Nets = append(vf.Nets, vn)
		}
		out.Files = append(out.Files, vf)
	}
	if netName != "" && matched == 0 {
		fmt.Fprintf(txt, "no net named %q in the given file(s)\n", netName)
		bad++
	}
	out.OK = bad == 0
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d problem(s) found", bad)
	}
	return nil
}
