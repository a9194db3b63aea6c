// Package ctxpass checks the engine's cancellation invariant: exported
// entry points that spawn reasoning or anonymization work must accept a
// context.Context and thread it into the evaluation call. The engine polls
// its context at fixpoint boundaries — but only if callers actually hand
// their context down; an exported API that silently evaluates under
// context.Background() cannot be cancelled or given a deadline.
//
// The analyzer is AST-only. A call "spawns evaluation" when it is:
//
//   - datalog.Run / datalog.RunContext / vadasa.Reason / vadasa.ReasonContext
//     (package-qualified, so unrelated Run methods don't match), or
//   - a method call named AssessRisk, Anonymize, ExplainRisk or their
//     *Context variants, on any receiver.
//
// Exported functions containing such calls must take a context.Context (an
// *http.Request also counts — r.Context() is the handler idiom) and the
// context argument of a *Context spawner must mention that parameter or a
// value derived from it.
//
// Exemptions: test files; single-statement functions (the compatibility
// wrappers `func X(...) { return XContext(context.Background(), ...) }` are
// exactly the pattern this analyzer exists to enforce everywhere else); and
// calls annotated with a trailing or preceding `//ctxpass:ok` comment for
// the rare legitimate detached evaluation (a background job owning its own
// lifecycle).
package ctxpass

import (
	"go/ast"
	"go/token"
	"strings"

	"vadasa/tools/analyzers/analysis"
)

// Analyzer is the ctxpass pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxpass",
	Doc:  "exported entry points that spawn evaluation must accept and thread a context.Context",
	Run:  run,
}

// bareSpawners are method names that start an evaluation; their "Context"
// variants are the threaded forms.
var bareSpawners = map[string]bool{
	"AssessRisk":  true,
	"Anonymize":   true,
	"ExplainRisk": true,
}

// pkgSpawners are package-qualified functions: only `pkg.Name` matches, so
// unrelated Run/Reason identifiers elsewhere stay quiet.
var pkgSpawners = map[string]map[string]bool{
	"datalog": {"Run": true},
	"vadasa":  {"Reason": true},
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ok := okLines(pass.Fset, file, "//ctxpass:ok")
		for _, decl := range file.Decls {
			fn, isFn := decl.(*ast.FuncDecl)
			if !isFn || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			if len(fn.Body.List) <= 1 {
				// Thin compatibility wrapper (single statement): the
				// Background() it passes is its documented contract.
				continue
			}
			checkFunc(pass, fn, ok)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, ok map[int]bool) {
	tainted := contextParams(fn)
	hasCtx := len(tainted) > 0
	// Forward pass: assignments whose right side mentions a tainted name
	// taint their left side (ctx2, cancel := context.WithTimeout(ctx, d)).
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if as, isAssign := n.(*ast.AssignStmt); isAssign && mentionsAny(as.Rhs, tainted) {
			for _, lhs := range as.Lhs {
				if id, isIdent := lhs.(*ast.Ident); isIdent {
					tainted[id.Name] = true
				}
			}
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		name, qual := calleeName(call)
		if name == "" {
			return true
		}
		line := pass.Fset.Position(call.Pos()).Line
		if ok[line] || ok[line-1] {
			return true
		}
		base, isContextVariant := strings.CutSuffix(name, "Context")
		if isContextVariant && spawnerName(base, qual) {
			if !hasCtx {
				pass.Reportf(call.Pos(),
					"exported %s calls %s without accepting a context.Context: add a context parameter and thread it (or annotate //ctxpass:ok for a deliberately detached evaluation)",
					fn.Name.Name, name)
			} else if len(call.Args) == 0 || !mentionsAny(call.Args[:1], tainted) {
				pass.Reportf(call.Pos(),
					"exported %s has a context.Context parameter but does not thread it into %s",
					fn.Name.Name, name)
			}
			return true
		}
		if spawnerName(name, qual) {
			if hasCtx {
				pass.Reportf(call.Pos(),
					"exported %s holds a context.Context but spawns evaluation via %s: call %sContext and thread it",
					fn.Name.Name, name, name)
			} else {
				pass.Reportf(call.Pos(),
					"exported %s spawns evaluation via %s without accepting a context.Context: add a context parameter and call %sContext",
					fn.Name.Name, name, name)
			}
		}
		return true
	})
}

func spawnerName(name, qual string) bool {
	if bareSpawners[name] {
		return true
	}
	return pkgSpawners[qual][name]
}

// calleeName extracts the called function's name and, for pkg.F or recv.M
// calls, the qualifying identifier.
func calleeName(call *ast.CallExpr) (name, qual string) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name, ""
	case *ast.SelectorExpr:
		if x, isIdent := fun.X.(*ast.Ident); isIdent {
			return fun.Sel.Name, x.Name
		}
		return fun.Sel.Name, ""
	}
	return "", ""
}

// contextParams returns the names of parameters that carry a context:
// context.Context values and *http.Request (whose .Context() counts).
func contextParams(fn *ast.FuncDecl) map[string]bool {
	out := make(map[string]bool)
	if fn.Type.Params == nil {
		return out
	}
	for _, field := range fn.Type.Params.List {
		if !isContextType(field.Type) && !isRequestType(field.Type) {
			continue
		}
		for _, name := range field.Names {
			out[name.Name] = true
		}
	}
	return out
}

func isContextType(t ast.Expr) bool {
	sel, isSel := t.(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "Context" {
		return false
	}
	x, isIdent := sel.X.(*ast.Ident)
	return isIdent && x.Name == "context"
}

func isRequestType(t ast.Expr) bool {
	star, isStar := t.(*ast.StarExpr)
	if !isStar {
		return false
	}
	sel, isSel := star.X.(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "Request" {
		return false
	}
	x, isIdent := sel.X.(*ast.Ident)
	return isIdent && x.Name == "http"
}

// mentionsAny reports whether any expression mentions a tainted identifier.
func mentionsAny(exprs []ast.Expr, names map[string]bool) bool {
	found := false
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, isIdent := n.(*ast.Ident); isIdent && names[id.Name] {
				found = true
				return false
			}
			return !found
		})
	}
	return found
}

// okLines maps line numbers carrying the given marker comment in file.
func okLines(fset *token.FileSet, file *ast.File, marker string) map[int]bool {
	out := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, marker) {
				out[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return out
}
