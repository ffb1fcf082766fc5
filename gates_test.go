// The gates no session here has a CI runner for, so tier-1 holds them: the
// workflow file stays YAML where it broke before — a step name with ": " in it
// must be quoted, or everything after the colon is a mapping and the file does
// not parse — and every test pattern it runs names a test, every Go file
// outside testdata is gofmt-clean, the budgeted packages do not grow, and a
// path or name a PR deleted in favour of another does not come back.
package repro_test

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	stepName = regexp.MustCompile(`^\s*- name: (.*)$`)
	stepKey  = regexp.MustCompile(`^\s+(run|uses|with|if|env|id|shell|working-directory|timeout-minutes|continue-on-error):`)
	runFlag  = regexp.MustCompile(`-run ('[^']*'|"[^"]*"|\S+)`)
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// TestCIStepNamesAreOneLine: every "- name:" of the workflow is one line — the
// next line is a key of the step, not a continuation of the name — of at most
// 60 characters, and a name that is not quoted as a whole holds no ": " and
// no " #".
func TestCIStepNamesAreOneLine(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	steps := 0
	for i, line := range lines {
		m := stepName.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		steps++
		name := m[1]
		quoted := len(name) >= 2 && name[0] == '"' && name[len(name)-1] == '"' && !strings.Contains(name[1:len(name)-1], `"`)
		if !quoted && (strings.Contains(name, ": ") || strings.Contains(name, " #") || strings.HasSuffix(name, ":") || strings.ContainsAny(name[:1], `"'&*!|>%@`+"`")) {
			t.Errorf("ci.yml:%d: step name needs quoting as a whole: %s", i+1, name)
		}
		if i+1 >= len(lines) || !stepKey.MatchString(lines[i+1]) {
			t.Errorf("ci.yml:%d: step name is not one line: the next line is no key of the step", i+1)
		}
		if n := len([]rune(name)); n > 60 {
			t.Errorf("ci.yml:%d: step name of %d characters, at most 60: %s", i+1, n, name)
		}
	}
	if steps < 10 {
		t.Fatalf("found %d step names in ci.yml; the pattern no longer matches the file", steps)
	}
}

// TestCIRunPatternsNameTests: every |-alternative of every -run pattern of
// the workflow names a Test, Benchmark or Fuzz function of the repository —
// a step whose pattern matches nothing passes, testing nothing.  ("^$", the
// pattern of a step that runs no test on purpose, is left out.)
func TestCIRunPatternsNameTests(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	goFiles(t, func(path string, src []byte) {
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				names = append(names, string(m[1]))
			}
		}
	})
	patterns := runFlag.FindAllStringSubmatch(string(data), -1)
	if len(patterns) == 0 {
		t.Fatal("found no -run pattern in ci.yml; the pattern no longer matches the file")
	}
	for _, p := range patterns {
		if pattern := strings.Trim(p[1], `'"`); pattern != "^$" {
			for _, alt := range strings.Split(pattern, "|") {
				if re, err := regexp.Compile(alt); err != nil || !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("ci.yml: -run alternative %q names no Test, Benchmark or Fuzz function", alt)
				}
			}
		}
	}
}

// goFiles calls visit with every .go file of the repository outside testdata
// and dot directories, slash-separated path and content.
func goFiles(t *testing.T, visit func(path string, src []byte)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(path), src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGoFilesAreFormatted: go/format leaves every .go file outside testdata
// as it is (what gofmt -l checks).
func TestGoFilesAreFormatted(t *testing.T) {
	goFiles(t, func(path string, src []byte) {
		formatted, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(src, formatted) {
			t.Errorf("%s is not gofmt-clean", path)
		}
	})
}

// TestSizeBudgets: the non-test lines of the budgeted packages only go down.
// A PR that shrinks a package lowers its figure; one that has to raise a
// figure says why in its CHANGES entry.
func TestSizeBudgets(t *testing.T) {
	budgets := []struct {
		dir   string
		lines int
	}{
		{"internal/core", 7050},
		{"internal/analysis", 930},
		{"internal/lang", 724},
		{"snet/service", 2130},
		{"internal/array", 918},
		{"internal/sudoku", 1133},
		{"internal/sacvm", 2441},
		{"internal/sched", 210},
	}
	lines := map[string]int{}
	goFiles(t, func(path string, src []byte) {
		if !strings.HasSuffix(path, "_test.go") {
			lines[filepath.ToSlash(filepath.Dir(path))] += bytes.Count(src, []byte("\n"))
		}
	})
	for _, b := range budgets {
		if got := lines[b.dir]; got == 0 {
			t.Errorf("%s: no non-test Go files found; the budget row no longer matches the tree", b.dir)
		} else if got > b.lines {
			t.Errorf("%s: %d non-test lines, budget %d", b.dir, got, b.lines)
		}
	}
}

// TestDeletedNamesStayDeleted: one front door.  Every row is a path or a name
// some PR deleted in favour of the one that stayed; a match means the second
// way of doing the thing is back.  Patterns are matched line by line against
// the .go files under dir ("" is the repository), test files included unless
// the row says nonTest; this file, which has to spell the patterns, and any
// path starting with except are left out.
func TestDeletedNamesStayDeleted(t *testing.T) {
	rows := []struct {
		pattern string
		dir     string
		nonTest bool
		except  string
		why     string
	}{
		{`os\.(Getenv|LookupEnv)`, "", true, "benchmark/",
			"non-test Go reads the environment: pass configuration through Compile/Start options"},
		{`WithLegacyRouting|WithStreamBuffer|ExecRoot|NoFusion|envFuseOn|recordPoolOn`, "", false, "",
			"Compile -> Plan.Start is the only way to run a network"},
		{`fuseTree|rebuildSerial|fusedExec|Emitter\.buf|FusedSegmentHold|recvTimeout|WithReplicaIdleReap|DecodeFlat`, "", false, "",
			"a plan has one Node tree, sequential leaves one run loop (segment.run), replicas retire by the close protocol"},
		{`internal/bench|cmd/experiments|BENCH_[0-9]+\.json|MergeBenchFile`, "", false, "docs_test.go",
			"go run ./benchmark is the only place a performance number is produced (docs_test.go holds the documents to the same)"},
		{`preregister|hotSnapshot|hotKV|fusedKeys|hotFrames|hotRecords|hotHWM`, "", false, "",
			"a stat is one atomic cell looked up by name (Stats.counter/maximum); per-record sites hold the pointer (Stats.held)"},
		{`kindNames|parseUnaryTag|parseGuardedPattern|TagBinary|TagUnary|tagMap\(`, "", false, "",
			"S-Net text has one lexer and one set of productions (core.Parser, embedded by internal/lang), a tag expression one evaluator (the program compiled per shape, prog.go; the tree walk is the tests' oracle)"},
		{`func inheritInto|func transPos|func \(f \*filterNode\) matches|matchMemo`, "", false, "",
			"inside internal/core a record is built and read by slot (prog.go); Record's by-name methods are the API of user code"},
		{`acquireShaped|func acquireRecord|boxCells|func \(b \*boxNode\) settle|mergeAscending|cmpOps|func \(p \*Parser\) parse(Or|And|Cmp|Add|Mul)\(|func \(w \*streamWriter\) sendDirect`, "internal/core/", true, "",
			"a stepped record meets the arena through its goroutine's front and ticks tallies folded once per input frame (arena.go), tag operators bind by one precedence table (tagPrec), the boundary sends through sendBatchDirect"},
		{`ringSnapshot|dropFromRing|ringGen|feederDone|func \(e \*engine\) (feeder|poke)`, "", false, "",
			"a Shared session sends through its engine's Handle"},
		{`sched\.(Set)?Default\(|func (Set)?Default\(|defaultPool|(Set)?DefaultPool`, "", false, "",
			"every with-loop runs on the *Pool its caller passes"},
		{`func (int|dbl|bool)(Binop|FoldOp)|Gens\(gens|func (structural1|applyKindwise)|parse(Or|And|Cmp|Add|Mul)\(`, "internal/sacvm/", false, "",
			"below Value the interpreter writes an operation once over a type parameter, the parser has one precedence table (binaryLevels) and one list production (exprList)"},
		{`type checker struct|func \(c \*checker\)|sig\((c )?\*checker\)`, "internal/core/", false, "",
			"a blueprint is typed once, by the shape-flow pass (flow.go); sig() infers signatures and collects nothing"},
		{`flowFacts|parPath|func \(p \*Plan\) Flow(In|Out|Exact)|func branchPrefix`, "internal/core/", false, "",
			"what the flow pass learned lives on the GraphNode it is about, and compiler.walk is the one place a path is built"},
		{`func (findPath|ancestors|contains)\(|checkHide`, "internal/analysis/", false, "",
			"the analysis reads GraphNode fields and follows Parent; it does not find nodes again by their paths"},
		{`hideNode|\bHideTags\b|HiddenTags`, "", false, "",
			"consuming a tag is a filter's job: [{<t>} -> {}]"},
		{`func MatchScore`, "", true, "",
			"routing scores live in the dispatch tables (route.go); the per-record scorer is the tests' oracle"},
		{`func stepped\(|func \(b \*boxNode\) (engine|run)\(|stageLabel|\[\]runner\{s\.a, s\.b\}`, "internal/core/", false, "",
			"one rule groups stages: Compile cuts every position once (spineCutter.cut), a dispatcher steps a cut of one segment, and a segment whose box must run concurrently runs as its cut (segment.cut) — a box runs as every stage runs"},
		{`type chain\b|func newFanout|func isStage|func \(f \*fanout\) serve`, "internal/core/", false, "",
			"one dispatcher per fan-out tree: a tap steps its operand (addBranch's rest, no chain pipeline), a site's routing is its dispatch, run as a part (fanout.run) or a stage (fanStage), and spineCutter.stage is the one grouping rule"},
		{`ticket|markerIDs|sendAll|regions +map|\.regions\b`, "internal/core/", false, "",
			"a fanout broadcasts the one marker it owns, and the deterministic merge keeps FIFOs (announced markers, each branch's held records by region), not maps"},
		{`levelSeq|newLevel|marker\{ *level|\.level\b`, "internal/core/", false, "",
			"a merger tells its own marker by address (mk != &m.f.own): a marker carries no level and a run numbers none"},
		{`\bFeedback\b|shapeRef`, "internal/core/", false, "",
			"nothing read GraphNode.Feedback or called Record.shapeRef: a star GraphNode is the feedback edge, a record's shape is r.shape"},
		{`func \((itp \*Interp\) HasFun|p \*Pool\) ForEach|o \*Options\) Cube)\(|func (Eq|AddScalar|MulScalar)\[`, "internal/", false, "",
			"nothing outside their own tests called them: Interp.Call reports an unknown function, Pool.For runs a range, Options.Get/Set/Count read the cube, Zip/Map build the rest"},
		{`json\.NewDecoder\(r\.Body\)|map\[string\]any\{"records"`, "snet/service/", true, "",
			"a request body is read by the wire reader (readBody), a record reply written by the wire writer (writeRecords)"},
		{`fmt\.Sprintf\("s%d"`, "snet/service/", true, "",
			"a session id is built without fmt"},
		{`^\s+send\(ctx context\.Context|\) send\(ctx`, "snet/service/", true, "",
			"a session sends through SendBatch; a backend has one send method, sendBatch"},
		{`\.inline\b|^\s+inline\s+int|startFeed|endFeed|feedResult`, "snet/service/", true, "",
			"an Isolated /api/run is a run of the plan (Plan.RunUntil) and takes its inputs itself; a Shared one is fed by one goroutine"},
		{`func \(h \*Handle\) feed\(`, "internal/core/", true, "",
			"RunAll and RunUntil hand their run its inputs as a stream filled before it starts (Plan.RunUntil); a Handle is fed by its caller's Send, SendBatch and Close"},
	}
	res := make([]*regexp.Regexp, len(rows))
	for i, r := range rows {
		res[i] = regexp.MustCompile(r.pattern)
	}
	goFiles(t, func(path string, src []byte) {
		if path == "gates_test.go" {
			return
		}
		for i, r := range rows {
			if !strings.HasPrefix(path, r.dir) || (r.nonTest && strings.HasSuffix(path, "_test.go")) ||
				(r.except != "" && strings.HasPrefix(path, r.except)) {
				continue
			}
			for n, line := range strings.Split(string(src), "\n") {
				if res[i].MatchString(line) {
					t.Errorf("%s:%d: a deleted path is back (%s): %s", path, n+1, r.why, strings.TrimSpace(line))
				}
			}
		}
	})
}
