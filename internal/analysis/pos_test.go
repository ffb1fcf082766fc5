package analysis_test

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/lang"
)

var lineColPat = regexp.MustCompile(`^\d+:\d+$`)

// TestFindingPositionsRoundTrip pins the satellite contract: every Finding
// on a .snet-built net carries a line:col position, and that position is
// exactly what the builder's node→Pos index (the same index CompileNet uses
// for TypeErrors) records for the finding's subject node.
func TestFindingPositionsRoundTrip(t *testing.T) {
	for _, name := range []string{"deadlock_sync", "dead_arm", "unbounded_split"} {
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", name+".snet"))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lang.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			reg := stubRegistry(prog)
			netName := prog.Nets[0].Name

			// The decorated path: AnalyzeNetWithCaps fills Finding.Pos.
			_, rep, _ := lang.AnalyzeNetWithCaps(prog, netName, reg, analysis.DefaultCaps())
			if rep.Empty() {
				t.Fatal("fixture produced no findings")
			}

			// The raw path: build once more, analyze the plan directly, and
			// map subjects through the node→Pos index by hand.
			b, err := lang.BuildNet(prog, netName, reg)
			if err != nil {
				t.Fatal(err)
			}
			plan, _ := core.Compile(b.Node)
			raw := analysis.Analyze(plan)
			if len(raw.Findings) != len(rep.Findings) {
				t.Fatalf("decorated and raw analyses diverge: %d vs %d findings",
					len(rep.Findings), len(raw.Findings))
			}

			for i, f := range rep.Findings {
				if f.Pos == "" {
					t.Errorf("finding %v has no source position", f)
					continue
				}
				if !lineColPat.MatchString(f.Pos) {
					t.Errorf("finding position %q is not line:col", f.Pos)
				}
				// Same program, same builder: the raw finding's subject must
				// resolve through Positions to the same line:col the
				// decorated finding carries.
				pos, ok := b.Positions[raw.Findings[i].Subject()]
				if !ok {
					t.Errorf("subject of %v missing from the node→Pos index", raw.Findings[i])
					continue
				}
				if pos.String() != f.Pos {
					t.Errorf("position mismatch for %s at %s: index says %s, finding says %s",
						f.Code, f.Path, pos, f.Pos)
				}
			}
		})
	}
}
