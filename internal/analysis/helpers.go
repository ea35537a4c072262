package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// HasPathSegment reports whether pkgPath contains seg as a whole path
// segment (e.g. HasPathSegment("example.com/m/internal/sim", "internal")).
func HasPathSegment(pkgPath, seg string) bool {
	for _, s := range strings.Split(pkgPath, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// IsPkgPath reports whether path denotes the package named by suffix:
// either exactly, or as a trailing "/"-separated suffix. Analyzers match
// repository packages this way so they keep working if the module path
// changes (and so test fixtures can stub them under any prefix).
func IsPkgPath(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// IsNamed reports whether t — after stripping one level of pointer —
// is the named type `name` declared in the package identified by
// pkgSuffix (per IsPkgPath).
func IsNamed(t types.Type, pkgSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return IsPkgPath(obj.Pkg().Path(), pkgSuffix)
}

// CalleeFunc resolves the function or method a call statically invokes,
// or nil for calls through function values, builtins and conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// WalkStack traverses root in depth-first order, calling fn with each
// node and the stack of its ancestors (outermost first, not including n).
// If fn returns false the node's children are skipped.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// IsFixturePath reports whether the file or directory path lies under a
// testdata directory. Fixture packages deliberately violate the analyzers
// that load them (`// want` expectations), so every driver must skip
// them: go list-based enumeration (`./...`) never descends into testdata,
// but explicit patterns and vet configs can still name fixtures.
func IsFixturePath(path string) bool {
	for _, seg := range strings.Split(filepath.ToSlash(path), "/") {
		if seg == "testdata" {
			return true
		}
	}
	return false
}

// EnclosingFunc returns the innermost function literal or declaration in
// the ancestor stack, or nil.
func EnclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}
