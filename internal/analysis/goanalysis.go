package analysis

import (
	"go/ast"
	"go/types"
)

// GoAnalyzer is one check over type-checked Go packages — the Go head's
// analogue of a go vet analyzer, scoped to this repository's invariants.
// Exactly one of Run and RunFacts is set: syntactic analyzers take the raw
// packages, dataflow analyzers take the shared FactBase (call graph plus
// per-function facts) so the program is indexed once per run, not once per
// analyzer.
type GoAnalyzer struct {
	// Name is the check name findings carry.
	Name string
	// Doc is a one-line description for thalia-vet's -list output.
	Doc string
	// Run analyzes the packages together (some checks, like call-graph
	// reachability, are whole-program) and returns findings.
	Run func(pkgs []*GoPackage) []Finding
	// RunFacts analyzes via the shared fact base.
	RunFacts func(fb *FactBase) []Finding
}

// DefaultGoAnalyzers returns the Go head's standard analyzer set: the
// syntactic v1 analyzers, one check per kind-coverage vocabulary row, and
// the v2 dataflow set.
func DefaultGoAnalyzers() []*GoAnalyzer {
	return []*GoAnalyzer{
		Determinism(), PanicPath(), ErrCheck(), explainKinds.analyzer(),
		faultKinds.analyzer(), planCoverage.analyzer(), scenarioCoverage.analyzer(),
		CtxFlow(), LockDiscipline(), GoLeak(), MapFlow(), TelemetryContract(),
	}
}

// RunGoAnalyzers runs every analyzer over the packages and merges findings.
// The fact base is built lazily, once, when the first RunFacts analyzer
// needs it; afterwards every finding inside a declared function gets its
// Symbol attributed so stable IDs can be computed.
func RunGoAnalyzers(pkgs []*GoPackage, analyzers []*GoAnalyzer) []Finding {
	var fb *FactBase
	var out []Finding
	for _, a := range analyzers {
		if a.RunFacts != nil {
			if fb == nil {
				fb = NewFactBase(pkgs)
			}
			out = append(out, a.RunFacts(fb)...)
			continue
		}
		out = append(out, a.Run(pkgs)...)
	}
	AssignSymbols(pkgs, out)
	return out
}

// inScope reports whether a package is one of the listed import paths.
func inScope(p *GoPackage, scope []string) bool {
	for _, s := range scope {
		if p.ImportPath == s {
			return true
		}
	}
	return false
}

// calleeOf resolves the function object a call expression invokes, when it
// is statically known: a plain function, a method called on a concrete
// receiver, or a builtin. Calls through interfaces or function values
// resolve to nil.
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		return info.Uses[fn.Sel] // package-qualified call
	}
	return nil
}

// funcFor resolves the *types.Func a declaration defines.
func funcFor(info *types.Info, decl *ast.FuncDecl) *types.Func {
	if obj, ok := info.Defs[decl.Name].(*types.Func); ok {
		return obj
	}
	return nil
}
