package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// ctxfirst enforces the repo's context conventions: a context.Context
// parameter is always the first parameter (the *Context entry-point style
// every subsystem uses), and fresh root contexts — context.Background() /
// context.TODO() — are never minted inside library code, where they detach
// retries, decodes and reads from the caller's cancellation. Package main,
// tests, and compatibility wrappers annotated with vetvideoapp:allow
// ctxfirst (the context-less convenience API) are exempt from the second
// rule.
func ctxfirst(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	report := func(n ast.Node, format string, args ...any) {
		diags = append(diags, Diagnostic{Pos: pkg.Fset.Position(n.Pos()), Message: fmt.Sprintf(format, args...)})
	}
	isMain := pkg.Types.Name() == "main"
	for _, f := range pkg.Files {
		isTest := strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.FuncType:
				checkCtxPosition(pkg.Info, nn, report)
			case *ast.CallExpr:
				if isMain || isTest {
					return true
				}
				if name := contextRoot(pkg.Info, nn); name != "" {
					report(nn, "calls context.%s() in library code; thread the caller's context through (or annotate a deliberate detachment with vetvideoapp:allow ctxfirst)", name)
				}
			}
			return true
		})
	}
	return diags
}

// checkCtxPosition flags function signatures that take context.Context
// anywhere but first.
func checkCtxPosition(info *types.Info, ft *ast.FuncType, report func(ast.Node, string, ...any)) {
	if ft.Params == nil {
		return
	}
	// Parameter index counts names, not fields: f(a int, ctx context.Context)
	// has ctx at index 1.
	idx := 0
	for _, field := range ft.Params.List {
		if isContextType(info, field.Type) && idx != 0 {
			report(field, "context.Context is parameter %d; it must be the first parameter", idx)
		}
		idx += max(len(field.Names), 1)
	}
}

func isContextType(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// contextRoot returns "Background" or "TODO" when call mints a root context
// through the context package, and "" otherwise.
func contextRoot(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	f, ok := info.Uses[id].(*types.Func)
	if !ok || f.Pkg() == nil || f.Pkg().Path() != "context" {
		return ""
	}
	if name := f.Name(); name == "Background" || name == "TODO" {
		return name
	}
	return ""
}
