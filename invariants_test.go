// The runtime's own invariants that the Go compiler cannot see, checked over
// the repository's Go syntax: node run loops drain their reader on every early
// return (streamdiscard) and never discard a send result (blockingsend), no
// record is used after its release or changed after its emit (recordretain),
// and a segment stays one goroutine that parks no record (fusesafe).  The
// analyzers are purely syntactic — identifier spellings and statement
// structure, no type information — so they run on the standard library alone.
// TestRepoIsClean holds the tree to them; each analyzer's seeded fixture under
// testdata/invariants holds the analyzer to what it must and must not flag:
//
//	go test -run 'RepoIsClean|FindsSeeded|FindsLeakyReturn' .
package repro_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// A unit is one package's worth of parsed-but-untyped syntax.
type unit struct {
	fset  *token.FileSet
	files []*ast.File
}

func (u *unit) pkgName() string {
	if len(u.files) == 0 {
		return ""
	}
	return u.files[0].Name.Name
}

func (u *unit) filename(f *ast.File) string {
	return filepath.Base(u.fset.Position(f.Package).Filename)
}

// A diagnostic is one finding: where, and why.
type diagnostic struct {
	pos token.Position
	msg string
}

func (d diagnostic) String() string { return fmt.Sprintf("%s: %s", d.pos, d.msg) }

var analyzers = []func(u *unit) []diagnostic{streamdiscard, blockingsend, recordretain, fusesafe}

// checkInvariants parses every file that files visits and runs every analyzer
// over them, one unit per directory and package clause (an external test
// package is a unit of its own, as it is to the go command).  The findings
// come back sorted by position.
func checkInvariants(t *testing.T, files func(visit func(path string, src []byte))) []diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	units := map[string]*unit{}
	files(func(path string, src []byte) {
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		key := filepath.Dir(path) + "\x00" + f.Name.Name
		if units[key] == nil {
			units[key] = &unit{fset: fset}
		}
		units[key].files = append(units[key].files, f)
	})
	var diags []diagnostic
	for _, u := range units {
		for _, run := range analyzers {
			diags = append(diags, run(u)...)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].pos, diags[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags
}

// seededFindings runs the analyzers over the fixture testdata/invariants/name
// and returns its findings, one "file:line:col: message" line each.
func seededFindings(t *testing.T, name string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "invariants", name, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("fixture %s: no Go files (%v)", name, err)
	}
	diags := checkInvariants(t, func(visit func(string, []byte)) {
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			visit(p, src)
		}
	})
	lines := make([]string, len(diags))
	for i, d := range diags {
		lines[i] = d.String()
	}
	return lines
}

// TestRepoIsClean runs every analyzer over every Go file of the repository
// outside testdata.
func TestRepoIsClean(t *testing.T) {
	for _, d := range checkInvariants(t, func(visit func(string, []byte)) { goFiles(t, visit) }) {
		t.Errorf("%s", d)
	}
}

// TestStreamDiscardFindsLeakyReturn checks exactly the undrained returns are
// flagged: the one after a refused send, and the one guarded by an ok the loop
// reassigned from its dispatch (fanout.run's shape).  Ok-guarded returns,
// Discard-preceded returns, deferred Discard and pure wiring functions pass.
func TestStreamDiscardFindsLeakyReturn(t *testing.T) {
	lines := seededFindings(t, "streamdiscard")
	if len(lines) != 2 {
		t.Fatalf("want exactly 2 findings, got %d:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	for i, want := range []struct{ fn, pos string }{{"leakyRun", "bad.go:24:4"}, {"dispatchRun", "bad.go:72:4"}} {
		if !strings.Contains(lines[i], want.fn) || !strings.Contains(lines[i], "in.Discard()") {
			t.Errorf("finding %d should name %s and the missing call: %s", i, want.fn, lines[i])
		}
		if !strings.Contains(lines[i], want.pos) {
			t.Errorf("finding %d should point at the leaky return (%s): %s", i, want.pos, lines[i])
		}
	}
}

// TestBlockingSendFindsSeededViolations checks the run-loop send contract:
// exactly the two fire-and-forget sends are flagged; result-branched sends
// and writer-only helper functions pass.
func TestBlockingSendFindsSeededViolations(t *testing.T) {
	lines := seededFindings(t, "blockingsend")
	if len(lines) != 2 {
		t.Fatalf("want exactly 2 findings, got %d:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	wants := []string{"out.send", "out.sendRecord"}
	for i, l := range lines {
		if !strings.Contains(l, "fireAndForgetRun") || !strings.Contains(l, wants[i]) {
			t.Errorf("finding %d should name fireAndForgetRun and %s: %s", i, wants[i], l)
		}
		if !strings.Contains(l, "result discarded") && !strings.Contains(l, "result of") {
			t.Errorf("finding %d should explain the discarded result: %s", i, l)
		}
	}
}

// TestRecordRetainFindsSeededViolations checks the arena-discipline
// analyzer: use-after-release, double release, mutate-after-emit and
// release-after-route are flagged; reassignment and branch-local drop
// paths are not.
func TestRecordRetainFindsSeededViolations(t *testing.T) {
	lines := seededFindings(t, "recordretain")
	if len(lines) != 4 {
		t.Fatalf("want 4 findings, got %d:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	wants := []string{
		"used after release",
		"used after release",
		"after emit",
		"released after emit",
	}
	for i, l := range lines {
		if !strings.Contains(l, wants[i]) {
			t.Errorf("finding %d: want %q in %s", i, wants[i], l)
		}
	}
}

// TestFuseSafeFindsSeededViolations checks the stage-loop analyzer: go
// statements, channel plumbing and record retention inside step methods and
// segment* methods are flagged; the stages' sanctioned idioms (the Emitter
// src slot, keeping an output buffer's backing, handing every output on) and
// functions outside the scope pass.
func TestFuseSafeFindsSeededViolations(t *testing.T) {
	lines := seededFindings(t, "fusesafe")
	if len(lines) != 5 {
		t.Fatalf("want 5 findings, got %d:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	wants := []string{
		"retained in field stash",
		"go statement in feedBad",
		"channel plumbing in feedBad",
		"retained in field parked",
		"retained in field last",
	}
	for i, l := range lines {
		if !strings.Contains(l, wants[i]) {
			t.Errorf("finding %d: want %q in %s", i, wants[i], l)
		}
	}
}

// ---------------------------------------------------------- streamdiscard

// streamdiscard checks the node contract documented on Node.run: a
// function that owns both ends of the record plane (a *streamReader and a
// *streamWriter parameter) and consumes from the reader must call
// reader.Discard() on every early-return path — otherwise an upstream
// sender blocked on a full stream never unblocks and the shutdown leaks a
// goroutine.
//
// A return is considered safe when:
//   - it is guarded by `if !ok` on a variable assigned from recv and from
//     nothing else (the stream is already closed and drained), or
//   - an earlier statement in the same block calls reader.Discard() or
//     hands the reader to another function (which then owns the contract),
//     or
//   - the function defers reader.Discard().
func streamdiscard(u *unit) []diagnostic {
	if u.pkgName() != "core" {
		return nil
	}
	var diags []diagnostic
	for _, f := range u.files {
		name := u.filename(f)
		if strings.HasSuffix(name, "_test.go") || name == "stream.go" {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			readers, writers := streamParams(fd)
			if len(readers) == 0 || len(writers) == 0 {
				continue
			}
			for _, rd := range readers {
				diags = append(diags, checkDiscard(u.fset, fd, rd)...)
			}
		}
	}
	return diags
}

// streamParams reports the names of the *streamReader and *streamWriter
// parameters of a function declaration.
func streamParams(fd *ast.FuncDecl) (readers, writers []string) {
	for _, field := range fd.Type.Params.List {
		star, ok := field.Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		id, ok := star.X.(*ast.Ident)
		if !ok {
			continue
		}
		switch id.Name {
		case "streamReader":
			for _, n := range field.Names {
				if n.Name != "_" {
					readers = append(readers, n.Name)
				}
			}
		case "streamWriter":
			for _, n := range field.Names {
				if n.Name != "_" {
					writers = append(writers, n.Name)
				}
			}
		}
	}
	return readers, writers
}

// checkDiscard walks one function body looking for return statements that
// leave the reader undrained.
func checkDiscard(fset *token.FileSet, fd *ast.FuncDecl, rd string) []diagnostic {
	w := &discardWalker{fset: fset, rd: rd, fn: fd.Name.Name}
	w.scan(fd.Body)
	if !w.recvs || w.deferred {
		// A function that never consumes hands the reader elsewhere (the
		// combinator-wiring pattern); a deferred Discard covers all paths.
		return nil
	}
	w.stmts(fd.Body.List, false)
	return w.diags
}

type discardWalker struct {
	fset     *token.FileSet
	rd       string // reader parameter name
	fn       string
	okvars   map[string]bool // variables assigned from rd.recv and from nothing else
	recvs    bool            // the body consumes from rd directly
	deferred bool            // defer rd.Discard() seen
	diags    []diagnostic
}

// scan collects the recv-result variables and the defer/recv facts in one
// pre-pass over the body, ignoring function literals (their returns are not
// this function's returns, and their locals are not its locals).  A variable
// also assigned from anything but recv is no recv result: after `ok =
// f.dispatch(rec)` a false ok is a refused send, not a drained stream.
func (w *discardWalker) scan(body *ast.BlockStmt) {
	w.okvars = map[string]bool{}
	other := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if w.isReaderCall(n.Call, "Discard") {
				w.deferred = true
			}
		case *ast.AssignStmt:
			fromRecv := len(n.Rhs) == 1 && w.isRecvCall(n.Rhs[0])
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					if fromRecv {
						w.okvars[id.Name] = true
					} else {
						other[id.Name] = true
					}
				}
			}
		case *ast.CallExpr:
			if w.isRecvCall(n) {
				w.recvs = true
			}
		}
		return true
	})
	for name := range other {
		delete(w.okvars, name)
	}
}

func (w *discardWalker) isReaderCall(call *ast.CallExpr, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == w.rd
}

func (w *discardWalker) isRecvCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	return w.isReaderCall(call, "recv")
}

// stmts checks one statement list.  guarded reports whether the list is
// the body of an `if !ok` guard on a recv result: returns there observe a
// closed, fully drained stream and need no Discard.
func (w *discardWalker) stmts(list []ast.Stmt, guarded bool) {
	released := false // an earlier statement in this block released the reader
	for _, s := range list {
		switch s := s.(type) {
		case *ast.ReturnStmt:
			if !guarded && !released {
				w.diags = append(w.diags, diagnostic{
					pos: w.fset.Position(s.Pos()),
					msg: fmt.Sprintf("%s: return without %s.Discard(): blocked upstream senders leak",
						w.fn, w.rd),
				})
			}
		case *ast.IfStmt:
			w.stmts(s.Body.List, guarded || released || w.isOkGuard(s.Cond))
			switch el := s.Else.(type) {
			case *ast.BlockStmt:
				w.stmts(el.List, guarded || released)
			case *ast.IfStmt:
				w.stmts([]ast.Stmt{el}, guarded || released)
			}
		case *ast.ForStmt:
			w.stmts(s.Body.List, guarded || released)
		case *ast.RangeStmt:
			w.stmts(s.Body.List, guarded || released)
		case *ast.BlockStmt:
			w.stmts(s.List, guarded || released)
		case *ast.LabeledStmt:
			w.stmts([]ast.Stmt{s.Stmt}, guarded || released)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.stmts(cc.Body, guarded || released)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.stmts(cc.Body, guarded || released)
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					w.stmts(cc.Body, guarded || released)
				}
			}
		}
		if w.releases(s) {
			released = true
		}
	}
}

// isOkGuard reports whether cond is `!ok` (possibly one arm of an `||`)
// for a recv result.
func (w *discardWalker) isOkGuard(cond ast.Expr) bool {
	switch e := cond.(type) {
	case *ast.UnaryExpr:
		if e.Op != token.NOT {
			return false
		}
		id, ok := e.X.(*ast.Ident)
		return ok && w.okvars[id.Name]
	case *ast.BinaryExpr:
		if e.Op == token.LOR {
			return w.isOkGuard(e.X) || w.isOkGuard(e.Y)
		}
	case *ast.ParenExpr:
		return w.isOkGuard(e.X)
	}
	return false
}

// releases reports whether a statement's subtree calls rd.Discard() or
// passes rd to another function (including a spawned closure),
// transferring the drain obligation.
func (w *discardWalker) releases(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if w.isReaderCall(n, "Discard") {
				found = true
				return false
			}
			for _, arg := range n.Args {
				if id, ok := arg.(*ast.Ident); ok && id.Name == w.rd {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// ------------------------------------------------------------ blockingsend

// blockingsend checks the shutdown half of the node contract: send and
// sendRecord return false when the downstream reader has hung up (Discard
// on cancellation, or the batch plane shutting down), and a run loop that
// discards that result keeps producing into a stream nobody drains — the
// next full buffer blocks the writer goroutine forever and the network
// never winds down.  Every send in a function that owns both ends of the
// record plane (a *streamReader and a *streamWriter parameter, the run-loop
// signature) must therefore be consumed: branched on, returned, or
// assigned — never a bare expression statement.
//
// Helper functions that take only a writer are exempt (their caller owns
// the loop and the guard), as are stream.go (the implementation itself)
// and tests.
func blockingsend(u *unit) []diagnostic {
	if u.pkgName() != "core" {
		return nil
	}
	var diags []diagnostic
	for _, f := range u.files {
		name := u.filename(f)
		if strings.HasSuffix(name, "_test.go") || name == "stream.go" {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			readers, writers := streamParams(fd)
			if len(readers) == 0 || len(writers) == 0 {
				continue
			}
			wr := map[string]bool{}
			for _, w := range writers {
				wr[w] = true
			}
			diags = append(diags, checkBareSends(u.fset, fd, wr)...)
		}
	}
	return diags
}

// checkBareSends flags every expression-statement call of send/sendRecord
// on a writer parameter: the bool result is discarded, so the loop cannot
// observe the reader hanging up.  Closures are inspected too — a spawned
// sender captures the same writer and the same obligation.
func checkBareSends(fset *token.FileSet, fd *ast.FuncDecl, writers map[string]bool) []diagnostic {
	var diags []diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		stmt, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := stmt.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "send" && sel.Sel.Name != "sendRecord") {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || !writers[id.Name] {
			return true
		}
		diags = append(diags, diagnostic{
			pos: fset.Position(call.Pos()),
			msg: fmt.Sprintf("%s: result of %s.%s discarded: a refused send means the reader hung up — stop the loop or the writer blocks forever",
				fd.Name.Name, id.Name, sel.Sel.Name),
		})
		return true
	})
	return diags
}

// ------------------------------------------------------------ recordretain

// recordretain checks the arena ownership discipline of the record plane
// (internal/core/arena.go): a record handed to releaseRecord/ReleaseRecord/
// disownRecord has returned to the pool — any later use of the same
// variable in the same block is a use-after-free of the arena (a double
// release included); and a record emitted downstream (sendRecord, or routed
// through a fanout port) is owned by its consumer — mutating or releasing
// it afterwards races with that consumer.
//
// The analysis is a linear scan per statement list, the same discipline as
// streamdiscard: state does not escape branch bodies (a release followed by
// continue/return inside an if is the normal drop-path idiom), and an
// assignment to the variable makes it live again.
func recordretain(u *unit) []diagnostic {
	var diags []diagnostic
	for _, f := range u.files {
		if strings.HasSuffix(u.filename(f), "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			}
			if body == nil {
				return true
			}
			w := &retainWalker{u: u}
			w.block(body.List, map[string]string{})
			diags = append(diags, w.diags...)
			return true
		})
	}
	return diags
}

type retainWalker struct {
	u     *unit
	diags []diagnostic
}

// releaseFuncs hand a record back to the arena; emitMutators mutate the
// record they are invoked on.
var releaseFuncs = map[string]bool{
	"releaseRecord": true, "ReleaseRecord": true, "disownRecord": true,
}
var recordMutators = map[string]bool{
	"SetField": true, "SetTag": true, "DeleteField": true, "DeleteTag": true,
}

// block scans one statement list.  dead maps a variable name to how it was
// given away ("released" or "emitted"); branch bodies get a copy, and their
// own transfers do not leak back out.
func (w *retainWalker) block(list []ast.Stmt, dead map[string]string) {
	for _, s := range list {
		w.checkStmt(s, dead)
		switch s := s.(type) {
		case *ast.IfStmt:
			w.block(s.Body.List, copyState(dead))
			switch el := s.Else.(type) {
			case *ast.BlockStmt:
				w.block(el.List, copyState(dead))
			case *ast.IfStmt:
				w.block([]ast.Stmt{el}, copyState(dead))
			}
		case *ast.ForStmt:
			w.block(s.Body.List, copyState(dead))
		case *ast.RangeStmt:
			w.block(s.Body.List, copyState(dead))
		case *ast.BlockStmt:
			w.block(s.List, copyState(dead))
		case *ast.LabeledStmt:
			w.block([]ast.Stmt{s.Stmt}, dead)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.block(cc.Body, copyState(dead))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.block(cc.Body, copyState(dead))
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					w.block(cc.Body, copyState(dead))
				}
			}
		}
		w.updateState(s, dead)
	}
}

func copyState(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// checkStmt reports uses of dead variables in the statement itself, not its
// nested blocks (those are scanned with their own state copy).  Only the
// statement's own expressions are inspected: for an if/for this is the
// init/condition, for everything else the whole statement.
func (w *retainWalker) checkStmt(s ast.Stmt, dead map[string]string) {
	if len(dead) == 0 {
		return
	}
	var exprs []ast.Node
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			exprs = append(exprs, s.Init)
		}
		exprs = append(exprs, s.Cond)
	case *ast.ForStmt:
		if s.Init != nil {
			exprs = append(exprs, s.Init)
		}
		if s.Cond != nil {
			exprs = append(exprs, s.Cond)
		}
	case *ast.RangeStmt:
		exprs = append(exprs, s.X)
	case *ast.SwitchStmt:
		if s.Tag != nil {
			exprs = append(exprs, s.Tag)
		}
	case *ast.AssignStmt:
		// A plain identifier on the left is written, not used; anything
		// else (rec.field, slice[i]) still reads its base.
		for _, e := range s.Rhs {
			exprs = append(exprs, e)
		}
		for _, lhs := range s.Lhs {
			if _, ok := lhs.(*ast.Ident); !ok {
				exprs = append(exprs, lhs)
			}
		}
	case *ast.BlockStmt, *ast.LabeledStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// handled structurally by block()
	default:
		exprs = append(exprs, s)
	}
	for _, e := range exprs {
		w.checkUses(e, dead)
	}
}

// checkUses flags references to dead variables inside one expression or
// simple statement, skipping nested function literals (their bodies run
// later, under their own scan).
func (w *retainWalker) checkUses(root ast.Node, dead map[string]string) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			how, isDead := dead[n.Name]
			if !isDead {
				return true
			}
			if how == "released" {
				w.diags = append(w.diags, diagnostic{
					pos: w.u.fset.Position(n.Pos()),
					msg: fmt.Sprintf("%s used after release: the record has returned to the arena",
						n.Name),
				})
			}
		case *ast.CallExpr:
			// Mutation of an emitted record: rec.SetTag(...) etc., or a
			// release after the consumer already owns it.
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if ok {
				if id, ok := sel.X.(*ast.Ident); ok && dead[id.Name] == "emitted" && recordMutators[sel.Sel.Name] {
					w.diags = append(w.diags, diagnostic{
						pos: w.u.fset.Position(n.Pos()),
						msg: fmt.Sprintf("%s.%s after emit: the consumer owns the record now",
							id.Name, sel.Sel.Name),
					})
					return false
				}
			}
			if name, arg := transferCall(n); name != "" && arg != "" && dead[arg] == "emitted" && releaseFuncs[name] {
				w.diags = append(w.diags, diagnostic{
					pos: w.u.fset.Position(n.Pos()),
					msg: fmt.Sprintf("%s released after emit: the consumer owns the record now",
						arg),
				})
				return false
			}
		}
		return true
	})
}

// updateState applies one statement's ownership transfers and assignments
// to the scan state.
func (w *retainWalker) updateState(s ast.Stmt, dead map[string]string) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if name, arg := transferCall(call); arg != "" {
				if releaseFuncs[name] {
					dead[arg] = "released"
				} else if name == "sendRecord" || name == "route" {
					dead[arg] = "emitted"
				}
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				delete(dead, id.Name)
			}
		}
	case *ast.IfStmt:
		// `if !f.route(port, rec) { break }` — the transfer is in the
		// condition; it holds for the statements after the if.
		ast.Inspect(s.Cond, func(n ast.Node) bool {
			if n, ok := n.(*ast.FuncLit); ok {
				_ = n
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if name, arg := transferCall(call); arg != "" && (name == "sendRecord" || name == "route") {
					dead[arg] = "emitted"
				}
			}
			return true
		})
	}
}

// transferCall recognizes the ownership-transferring calls:
// releaseRecord(rec) / ReleaseRecord(rec) / disownRecord(rec) (bare or
// pkg-qualified), w.sendRecord(rec), and f.route(port, rec).  It returns
// the call's name and the record argument's identifier, or "".
func transferCall(call *ast.CallExpr) (name, arg string) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return "", ""
	}
	argPos := 0
	switch {
	case releaseFuncs[name], name == "sendRecord":
		argPos = 0
	case name == "route":
		argPos = 1
	default:
		return "", ""
	}
	if len(call.Args) <= argPos {
		return name, ""
	}
	if id, ok := call.Args[argPos].(*ast.Ident); ok {
		return name, id.Name
	}
	return name, ""
}

// --------------------------------------------------------------- fusesafe

// fusesafe pins the two invariants the stage loop (internal/core/fuse.go)
// rests on:
//
//  1. A segment is single-goroutine by contract — sharing one goroutine is
//     all that grouping stages into a segment means.  Spawning goroutines or
//     growing channel plumbing inside a step or the segment loop
//     reintroduces exactly the per-stage concurrency grouping removed,
//     silently, and with none of the stream plane's flush, marker and drain
//     discipline.
//
//  2. A step retains no record after it returns or hands it on.  Records
//     move through a segment depth-first, from one step straight into the
//     next; nothing is parked between stages, which is what keeps a segment
//     inside the memory bound the verifier certifies.  A record assigned or
//     appended to a struct field outlives the step, aliases an arena record
//     across stage boundaries, and the arena will recycle it under the
//     stash.  The sanctioned slots are two.  The Emitter's src is the input
//     of the box invocation in progress (the Emitter itself keeps that
//     invocation's latest emission in held); boxNode.step clears both before
//     it returns.  A synchrocell's storage — an indexed slot of its stage
//     state, not a field assignment — is what the stage is for: the first
//     match of each pattern waits there for the others, priced by the
//     verifier as the cell's hold and given back by segmentRun.end.  The
//     arena front a goroutine releases and acquires through (arena.go) is no
//     third: it is the arena's type, owned by the goroutine and not by a step
//     or a segment, and what it keeps is a released record only — emptied,
//     poisoned, nobody's; a segmentRun field that kept one would be flagged
//     here, rightly, and gets no exemption.
//
// The scope is syntactic: methods named step, and functions and methods of
// segment* types (segment, segmentRun), in package core.
func fusesafe(u *unit) []diagnostic {
	if u.pkgName() != "core" {
		return nil
	}
	var diags []diagnostic
	for _, f := range u.files {
		if strings.HasSuffix(u.filename(f), "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !segmentScope(fn) {
				continue
			}
			w := &fuseWalker{u: u, scope: fn.Name.Name, recs: map[string]bool{}}
			w.collectRecordVars(fn)
			w.walk(fn.Body)
			diags = append(diags, w.diags...)
		}
	}
	return diags
}

// segmentScope reports whether fn belongs to the stage loop: a step method
// of any stage, or by receiver a method of a segment* type.
func segmentScope(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	if fn.Name.Name == "step" {
		return true
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return ok && strings.HasPrefix(id.Name, "segment")
}

type fuseWalker struct {
	u     *unit
	scope string
	recs  map[string]bool // identifiers known to hold an in-flight record
	diags []diagnostic
}

// collectRecordVars gathers the names that carry records through the
// function: *Record parameters, and the range variables over and elements
// taken from a record slice — a []*Record parameter or what a filter
// program's apply returned.
func (w *fuseWalker) collectRecordVars(fn *ast.FuncDecl) {
	slices := map[string]bool{}
	if fn.Type.Params != nil {
		for _, p := range fn.Type.Params.List {
			for _, n := range p.Names {
				switch {
				case isRecordPtr(p.Type):
					w.recs[n.Name] = true
				case isRecordSlice(p.Type):
					slices[n.Name] = true
				}
			}
		}
	}
	fromSlice := func(e ast.Expr) bool {
		if sl, ok := e.(*ast.SliceExpr); ok {
			e = sl.X
		}
		id, ok := e.(*ast.Ident)
		return ok && slices[id.Name]
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if id, ok := n.Value.(*ast.Ident); ok && fromSlice(n.X) {
				w.recs[id.Name] = true
			}
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && isApplyCall(n.Rhs[0]) {
				if id, ok := n.Lhs[0].(*ast.Ident); ok {
					slices[id.Name] = true
				}
				return true
			}
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				idx, ok := rhs.(*ast.IndexExpr)
				if !ok || !fromSlice(idx.X) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					w.recs[id.Name] = true
				}
			}
		}
		return true
	})
}

func isRecordPtr(t ast.Expr) bool {
	star, ok := t.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "Record"
}

func isRecordSlice(t ast.Expr) bool {
	arr, ok := t.(*ast.ArrayType)
	return ok && arr.Len == nil && isRecordPtr(arr.Elt)
}

// isApplyCall matches x.apply(...), the filter program building its outputs.
func isApplyCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "apply"
}

// retained reports the record identifier an assignment's right-hand side
// would store: the identifier itself, or one appended to a slice.
func (w *fuseWalker) retained(rhs ast.Expr) (string, bool) {
	if id, ok := rhs.(*ast.Ident); ok {
		return id.Name, w.recs[id.Name]
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return "", false
	}
	if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "append" {
		return "", false
	}
	for _, arg := range call.Args[1:] {
		if id, ok := arg.(*ast.Ident); ok && w.recs[id.Name] {
			return id.Name, true
		}
	}
	return "", false
}

func (w *fuseWalker) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			w.diags = append(w.diags, diagnostic{
				pos: w.u.fset.Position(n.Pos()),
				msg: fmt.Sprintf("go statement in %s: a segment is single-goroutine by contract",
					w.scope),
			})
		case *ast.ChanType:
			w.diags = append(w.diags, diagnostic{
				pos: w.u.fset.Position(n.Pos()),
				msg: fmt.Sprintf("channel plumbing in %s: a stage hands its records straight to the next stage's step",
					w.scope),
			})
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name == "src" || i >= len(n.Rhs) {
					continue
				}
				name, ok := w.retained(n.Rhs[i])
				if !ok {
					continue
				}
				w.diags = append(w.diags, diagnostic{
					pos: w.u.fset.Position(n.Pos()),
					msg: fmt.Sprintf("record %s retained in field %s: a step keeps no record after it returns or hands it on",
						name, sel.Sel.Name),
				})
			}
		}
		return true
	})
}
