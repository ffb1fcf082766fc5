package array

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"
)

// Arrays derived from one another (Clone, WithAt, Modarray, Map, ...) share
// one shape vector.  That is sound for as long as a shape vector is written
// only while it is being built, before an Array holds it, and no slice a
// caller can reach is one.  The two tests hold the package to both halves.

// isShapeField reports whether e is x.shape, or a slice of it.
func isShapeField(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name == "shape"
		default:
			return false
		}
	}
}

func TestShapeVectorsAreNeverWritten(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	written := func(e ast.Expr) bool {
		ix, ok := e.(*ast.IndexExpr)
		return ok && isShapeField(ix.X)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				bad := ""
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if written(lhs) {
							bad = "assigns through"
						}
					}
				case *ast.IncDecStmt:
					if written(n.X) {
						bad = "steps an element of"
					}
				case *ast.CallExpr:
					if f, ok := n.Fun.(*ast.Ident); ok && len(n.Args) > 0 && isShapeField(n.Args[0]) {
						bad = map[string]string{"append": "appends to", "copy": "copies into", "clear": "clears"}[f.Name]
					}
				}
				if bad != "" {
					t.Errorf("%s: %s an array's shape vector; derived arrays share it, build a new one instead",
						fset.Position(n.Pos()), bad)
				}
				return true
			})
		}
	}
}

func TestShapeVectorsAreNotAliased(t *testing.T) {
	scribble := func(s []int) {
		for d := range s {
			s[d] = 99
		}
	}
	builders := map[string]func(shape []int) *Array[int]{
		"New":       func(shape []int) *Array[int] { return New(shape, 7) },
		"FromSlice": func(shape []int) *Array[int] { return FromSlice(shape, make([]int, 24)) },
		"Reshape":   func(shape []int) *Array[int] { return Vector(make([]int, 24)...).Reshape(shape) },
	}
	for name, build := range builders {
		in := []int{2, 3, 4}
		a := build(in)
		derived := map[string]*Array[int]{
			"itself":   a,
			"Clone":    a.Clone(),
			"WithAt":   a.WithAt(1, 1, 2, 3),
			"Modarray": Modarray(p1, a, GenHalfOpen([]int{0, 0, 0}, []int{1, 1, 1}, func([]int) int { return 5 })),
			"Map":      Map(p1, a, func(v int) int { return v + 1 }),
			"Zip":      Zip(p1, a, a, func(x, y int) int { return x + y }),
			"Reverse":  Reverse(a, 1),
			"Rotate":   Rotate(a, 2, 1),
		}
		scribble(in)
		for _, d := range derived {
			scribble(d.Shape())
		}
		for how, d := range derived {
			if got := d.Shape(); !slices.Equal(got, []int{2, 3, 4}) {
				t.Errorf("%s, %s: shape reads %v after the caller wrote to its own slices", name, how, got)
			}
			d.At(1, 2, 3) // the bounds check reads the shape
		}
		if sub := a.Sel(1); !slices.Equal(sub.Shape(), []int{3, 4}) {
			t.Errorf("%s, Sel: shape reads %v", name, sub.Shape())
		}
	}
}
