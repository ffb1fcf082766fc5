package analysis_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/sudoku"
	"repro/internal/workloads"
)

// The reference for everything Compile and Analyze say about a network: one
// golden over the workload nets (built in Go, and their .snet programs bound
// to the same boxes), the three sudoku nets, the shipped .snet programs, the
// seeded defect programs of testdata and the defect nets of analysis_test.go.
// A change to the compile phase or to the analysis that is meant to change
// nothing leaves it byte-identical; one that is meant to change something
// shows exactly what in the diff.

// refFlow is what the shape-flow pass left at one node of the graph.
type refFlow struct {
	Path    string   `json:"path"`
	Visited bool     `json:"visited"`
	Exact   bool     `json:"exact"`
	In      []string `json:"in"`
	Out     []string `json:"out"`
}

// refNet is everything a plan and its report say.
type refNet struct {
	Name       string          `json:"name"`
	In         []string        `json:"in"`
	Out        []string        `json:"out"`
	TypeErrors []string        `json:"typeErrors"`
	Warnings   []string        `json:"warnings"`
	Topology   *core.Topology  `json:"topology"`
	Flow       []refFlow       `json:"flow"`
	Findings   []string        `json:"findings"`
	Bound      *analysis.Bound `json:"bound"`
	Nodes      int             `json:"nodes"`
	Edges      int             `json:"edges"`
}

func variantStrings(vs []core.Variant) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// flowOf reads the flow facts of one graph node.
func flowOf(g *core.GraphNode) refFlow {
	return refFlow{Path: g.Path, Visited: g.Visited, Exact: !g.Inexact,
		In: variantStrings(g.FlowIn), Out: variantStrings(g.FlowOut)}
}

func reference(name string, p *core.Plan, rep *analysis.Report) refNet {
	n := refNet{Name: name, In: variantStrings(p.In()), Out: variantStrings(p.Out()),
		TypeErrors: []string{}, Warnings: []string{}, Findings: []string{},
		Topology: p.Topology(), Bound: rep.Bound, Nodes: rep.Nodes, Edges: rep.Edges}
	for _, te := range p.TypeErrors() {
		n.TypeErrors = append(n.TypeErrors, te.Error())
	}
	for _, d := range p.Warnings() {
		n.Warnings = append(n.Warnings, d.String())
	}
	for _, f := range rep.Findings {
		n.Findings = append(n.Findings, f.String())
	}
	var walk func(g *core.GraphNode)
	walk = func(g *core.GraphNode) {
		n.Flow = append(n.Flow, flowOf(g))
		for _, ch := range g.Children {
			walk(ch)
		}
	}
	walk(p.Graph())
	return n
}

// nodeRegistry binds a .snet program's box names to built nodes.
func nodeRegistry(boxes map[string]core.Node) *lang.Registry {
	reg := lang.NewRegistry()
	for name, n := range boxes {
		reg.RegisterNode(name, n)
	}
	return reg
}

func TestReferenceGolden(t *testing.T) {
	var nets []refNet
	built := func(name string, root core.Node, opts ...core.CompileOption) {
		plan, _ := core.Compile(root, opts...)
		nets = append(nets, reference(name, plan, analysis.Analyze(plan)))
	}
	// program adds every net of a .snet file, its boxes bound by reg (stubs
	// when nil), with source positions as the front end decorates them.
	program := func(name, path string, reg *lang.Registry, caps analysis.Caps) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if reg == nil {
			reg = stubRegistry(prog)
		}
		for _, nd := range prog.Nets {
			plan, rep, _ := lang.AnalyzeNetWithCaps(prog, nd.Name, reg, caps)
			if plan == nil || rep == nil {
				t.Fatalf("%s: net %s did not build", path, nd.Name)
			}
			nets = append(nets, reference(name+":"+nd.Name, plan, rep))
		}
	}
	def := analysis.DefaultCaps()

	built("workloads/wavefront", workloads.WavefrontNet(8, 61))
	built("workloads/divconq", workloads.DivConqNet(64, 8))
	built("workloads/webpipe", workloads.WebPipeNet())
	program("workloads/wavefront.snet", "../../examples/wavefront/wavefront.snet", nodeRegistry(workloads.WavefrontBoxes(8, 61)), def)
	program("workloads/mergesort.snet", "../../examples/divconq/mergesort.snet", nodeRegistry(workloads.DivConqBoxes(64, 8)), def)
	program("workloads/webpipe.snet", "../../examples/webpipe/webpipe.snet", nodeRegistry(workloads.WebPipeBoxes()), def)

	built("sudoku/fig1", sudoku.Fig1Net(sudoku.NetConfig{}))
	built("sudoku/fig2", sudoku.Fig2Net(sudoku.NetConfig{}))
	built("sudoku/fig3", sudoku.Fig3Net(sudoku.NetConfig{}))

	for _, path := range []string{
		"../../examples/dsl/pipeline.snet",
		"../../cmd/snetd/testdata/countdown.snet",
		"../../examples/wavefront/wavefront.snet",
		"../../examples/divconq/mergesort.snet",
		"../../examples/webpipe/webpipe.snet",
	} {
		program("shipped/"+filepath.Base(path), path, nil, def)
	}

	budgeted := def
	budgeted.MemoryBudget = 1000
	for _, name := range []string{"deadlock_sync", "dead_arm", "unbounded_split", "deadlock_cycle", "diverging_star"} {
		program("fixture/"+name, filepath.Join("testdata", name+".snet"), nil, def)
	}
	program("fixture/overbudget", filepath.Join("testdata", "overbudget.snet"), nil, budgeted)

	// The defect nets of analysis_test.go, as built there.
	tagN := core.WithInputType(core.RecType{core.NewVariant(core.Tag("n"))})
	built("defect/sync-starvation", core.Serial(
		box("gen", "(<seed>) -> (a, <k>)"),
		core.NamedSync("join", pat("{a, <k>}"), pat("{b, <k>}"))))
	built("defect/sync-never-fires", core.Serial(
		box("gen", "(<seed>) -> (c)"),
		core.NamedSync("join", pat("{a, <k>}"), pat("{b, <k>}"))))
	built("defect/star-divergence", core.NamedStar("loop", box("spin", "(<n>) -> (<n>)"), pat("{<done>}")), tagN)
	built("defect/star-never-entered", core.NamedStar("skip", box("spin", "(<n>) -> (<n>)"), pat("{<n>}")), tagN)
	built("defect/dead-arm-behind-sync", core.Serial(
		box("g", "(<s>) -> (a, <k>) | (b, <k>)"),
		core.NamedSync("join", pat("{a, <k>}"), pat("{b, <k>}")),
		core.Parallel(
			box("onMerged", "(a, b, <k>) -> (res)"),
			box("onNever", "(nope) -> (res)"))))
	pair := core.NamedSync("pair", pat("{l, <p>, <job>}"), pat("{r, <p>, <job>}"))
	built("defect/unbounded-split", core.Serial(box("feed", "(<job>) -> (l, <p>, <job>)"),
		core.NamedSplit("pairs", core.Serial(pair, box("merge2", "(l, r, <p>, <job>) -> (out, <done>)")), "p")))
	// Two definite defects a bottom-up check of signatures could only warn about.
	built("defect/serial-mismatch", core.Serial(box("a", "(x) -> (y)"), box("b", "(q) -> (z)")))
	built("defect/star-exit-unreachable", core.Star(box("spin", "(<n>) -> (<n>)"), pat("{<done>}")))

	var raw bytes.Buffer
	enc := json.NewEncoder(&raw)
	enc.SetEscapeHTML(false) // labels are written <tag>
	enc.SetIndent("", " ")
	if err := enc.Encode(nets); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "reference.golden"), normalize(raw.String()))
}
