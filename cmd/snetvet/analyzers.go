package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
)

// A unit is one package's worth of parsed-but-untyped syntax.  The
// analyzers are purely syntactic: they need identifier spellings and
// statement structure, not type information, which keeps the driver free
// of the export-data plumbing a typed vet tool would need.
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

// A diagnostic is one finding: the analyzer that produced it, where, and
// why.
type diagnostic struct {
	analyzer string
	pos      token.Position
	msg      string
}

type analyzer struct {
	name string
	doc  string
	run  func(u *unit) []diagnostic
}

var analyzers = []*analyzer{rawchanAnalyzer, streamdiscardAnalyzer, blockingsendAnalyzer, reservedlitAnalyzer, recordretainAnalyzer, fusesafeAnalyzer}

// ---------------------------------------------------------------- rawchan

// rawchan pins the record plane's channel as an implementation detail of
// stream.go: every node communicates through streamReader/streamWriter,
// never over a raw item or frame channel.  A node that regrows its own
// channel plumbing regrows its own flush, marker and drain bugs with it.
var rawchanAnalyzer = &analyzer{
	name: "rawchan",
	doc:  "forbid raw item/frame channels outside internal/core/stream.go",
	run: func(u *unit) []diagnostic {
		if u.pkgName() != "core" {
			return nil
		}
		var diags []diagnostic
		for _, f := range u.files {
			name := u.filename(f)
			// stream.go owns the channel; its white-box test may build
			// harness channels of its own.
			if name == "stream.go" || name == "stream_test.go" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				ch, ok := n.(*ast.ChanType)
				if !ok {
					return true
				}
				if id, ok := ch.Value.(*ast.Ident); ok && (id.Name == "item" || id.Name == "frame") {
					diags = append(diags, diagnostic{
						analyzer: "rawchan",
						pos:      u.fset.Position(ch.Pos()),
						msg: fmt.Sprintf("raw chan %s outside stream.go: use streamReader/streamWriter",
							id.Name),
					})
				}
				return true
			})
		}
		return diags
	},
}

// ------------------------------------------------------------ reservedlit

// reservedlit keeps the "__snet_" control-record namespace in one place:
// reserved.go defines the marker labels and IsReservedLabel; a literal
// spelled anywhere else bypasses that single point of truth and silently
// drifts when the namespace changes.
var reservedlitAnalyzer = &analyzer{
	name: "reservedlit",
	doc:  "forbid \"__snet_\"-prefixed string literals outside internal/core/reserved.go",
	run: func(u *unit) []diagnostic {
		var diags []diagnostic
		for _, f := range u.files {
			name := u.filename(f)
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			if u.pkgName() == "core" && name == "reserved.go" {
				continue
			}
			// Spelled in two parts so the analyzer does not flag itself.
			reserved := "__" + "snet_"
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				s, err := strconv.Unquote(lit.Value)
				if err != nil || !strings.HasPrefix(s, reserved) {
					return true
				}
				diags = append(diags, diagnostic{
					analyzer: "reservedlit",
					pos:      u.fset.Position(lit.Pos()),
					msg:      "\"__snet_\" literal outside reserved.go: use the core reserved-label constants",
				})
				return true
			})
		}
		return diags
	},
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
//   - it is guarded by `if !ok` on a variable assigned from recv (the
//     stream is already closed and drained), or
//   - an earlier statement in the same block calls reader.Discard() or
//     hands the reader to another function (which then owns the contract),
//     or
//   - the function defers reader.Discard().
var streamdiscardAnalyzer = &analyzer{
	name: "streamdiscard",
	doc:  "require streamReader.Discard() on every early-return path of node run loops",
	run: func(u *unit) []diagnostic {
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
	},
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
	okvars   map[string]bool // variables assigned from rd.recv
	recvs    bool            // the body consumes from rd directly
	deferred bool            // defer rd.Discard() seen
	diags    []diagnostic
}

// scan collects the recv-result variables and the defer/recv facts in one
// pre-pass over the body, ignoring function literals (their returns are not
// this function's returns, and their locals are not its locals).
func (w *discardWalker) scan(body *ast.BlockStmt) {
	w.okvars = map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if w.isReaderCall(n.Call, "Discard") {
				w.deferred = true
			}
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && w.isRecvCall(n.Rhs[0]) {
				w.recvs = true
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						w.okvars[id.Name] = true
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
					analyzer: "streamdiscard",
					pos:      w.fset.Position(s.Pos()),
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
// for a variable assigned from recv.
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
