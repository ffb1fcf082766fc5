package main

import (
	"fmt"
	"go/ast"
	"strings"
)

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
var fusesafeAnalyzer = &analyzer{
	name: "fusesafe",
	doc:  "keep segments single-goroutine and steps free of record retention",
	run: func(u *unit) []diagnostic {
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
	},
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
				analyzer: "fusesafe",
				pos:      w.u.fset.Position(n.Pos()),
				msg: fmt.Sprintf("go statement in %s: a segment is single-goroutine by contract",
					w.scope),
			})
		case *ast.ChanType:
			w.diags = append(w.diags, diagnostic{
				analyzer: "fusesafe",
				pos:      w.u.fset.Position(n.Pos()),
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
					analyzer: "fusesafe",
					pos:      w.u.fset.Position(n.Pos()),
					msg: fmt.Sprintf("record %s retained in field %s: a step keeps no record after it returns or hands it on",
						name, sel.Sel.Name),
				})
			}
		}
		return true
	})
}
