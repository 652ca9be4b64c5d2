package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// vocabulary is one row of the kind-coverage table: a closed vocabulary
// declared in one package that another package must dispatch on. Every
// member needs a consuming site and, when untested is set, a test in the
// consuming package that names it. A member nothing consumes is a silent
// no-op wherever it is named; a member no test mentions can rot without
// failing anything. Each row runs as its own check, so finding IDs and
// SARIF rules stay per vocabulary.
type vocabulary struct {
	check, doc string
	// decl is the declaring package. typ names the vocabulary's type there:
	// the members are its exported constants or, when typ is an interface,
	// the exported concrete types whose pointer implements it.
	decl, typ string
	// consumer is the package whose switch or type-switch case labels must
	// name every member. Empty means any use outside decl counts.
	consumer string
	// unconsumed and untested are the finding messages, formatted with the
	// member's name. An empty untested skips the test scan.
	unconsumed, untested string
}

// The four vocabulary rows. faultline validates kinds through a map
// literal, not a switch, so a case label there is unambiguously an
// injection site.
var (
	explainKinds = vocabulary{
		check:      "explainkinds",
		doc:        "every explain.Kind constant is emitted by at least one instrumentation site",
		decl:       "thalia/internal/explain",
		typ:        "Kind",
		unconsumed: "explain.%s is declared but no instrumentation site emits it",
	}
	faultKinds = vocabulary{
		check:      "faultkinds",
		doc:        "every faultline.Kind has an injection dispatch site and a test exercising it",
		decl:       "thalia/internal/faultline",
		typ:        "Kind",
		consumer:   "thalia/internal/faultline",
		unconsumed: "faultline.%s has no injection dispatch site (no switch case consumes it)",
		untested:   "faultline.%s is exercised by no test in its package",
	}
	planCoverage = vocabulary{
		check:      "plancoverage",
		doc:        "every xquery Expr node kind has a compile case in the plan package and a test exercising it",
		decl:       "thalia/internal/xquery",
		typ:        "Expr",
		consumer:   "thalia/internal/xquery/plan",
		unconsumed: "xquery.%s has no compile case in the plan package (the compiler cannot lower it)",
		untested:   "xquery.%s is exercised by no test in the plan package",
	}
	scenarioCoverage = vocabulary{
		check:      "scenariocoverage",
		doc:        "every hetero.Case has a transform dispatch site in the scenario generator and a test exercising it",
		decl:       "thalia/internal/hetero",
		typ:        "Case",
		consumer:   "thalia/internal/scenario",
		unconsumed: "hetero.%s has no transform dispatch site in the scenario generator (the class cannot be generated)",
		untested:   "hetero.%s is exercised by no test in the scenario package",
	}
)

// analyzer returns the row's check.
func (v vocabulary) analyzer() *GoAnalyzer {
	return &GoAnalyzer{Name: v.check, Doc: v.doc, Run: v.run}
}

func (v vocabulary) run(pkgs []*GoPackage) []Finding {
	var decl, consumer *GoPackage
	for _, p := range pkgs {
		if p.ImportPath == v.decl {
			decl = p
		}
		if p.ImportPath == v.consumer {
			consumer = p
		}
	}
	if decl == nil || (v.consumer != "" && consumer == nil) {
		return nil // the vocabulary is outside the analysis scope
	}
	members, byType := v.members(decl)
	if len(members) == 0 {
		return nil
	}

	// The importer materializes its own objects for each dependency, so
	// a use matches a member by package path, name and object class, not
	// by identity.
	consumed := map[string]bool{}
	mark := func(obj types.Object) {
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != v.decl || members[obj.Name()] == nil {
			return
		}
		if _, isConst := obj.(*types.Const); isConst != byType {
			consumed[obj.Name()] = true
		}
	}
	if consumer == nil {
		for _, p := range pkgs {
			if p != decl {
				for _, obj := range p.Info.Uses {
					mark(obj)
				}
			}
		}
	} else {
		for _, f := range consumer.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch sw := n.(type) {
				case *ast.SwitchStmt:
					body = sw.Body
				case *ast.TypeSwitchStmt:
					body = sw.Body
				default:
					return true
				}
				for _, stmt := range body.List {
					for _, label := range stmt.(*ast.CaseClause).List {
						mark(consumer.Info.Uses[caseIdent(label)])
					}
				}
				return true
			})
		}
	}

	// The loader parses only non-test files, so "tested" is a textual scan
	// of the consuming package's _test.go files for the member's name. An
	// unreadable directory or file leaves its members untested, so they are
	// reported rather than silently passed.
	tested := map[string]bool{}
	if v.untested != "" {
		entries, _ := os.ReadDir(consumer.Dir)
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			src, err := os.ReadFile(filepath.Join(consumer.Dir, e.Name()))
			if err != nil {
				continue
			}
			for name := range members {
				if strings.Contains(string(src), name) {
					tested[name] = true
				}
			}
		}
	}

	names := make([]string, 0, len(members))
	for name := range members {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Finding
	report := func(name, format string) {
		file, line, col := decl.Position(members[name].Pos())
		out = append(out, Finding{Check: v.check, File: file, Line: line, Column: col,
			Message: fmt.Sprintf(format, name)})
	}
	for _, name := range names {
		if !consumed[name] {
			report(name, v.unconsumed)
		}
		if v.untested != "" && !tested[name] {
			report(name, v.untested)
		}
	}
	return out
}

// members returns the vocabulary's members by name, and whether they are
// types (typ is an interface) rather than constants.
func (v vocabulary) members(decl *GoPackage) (map[string]types.Object, bool) {
	scope := decl.Types.Scope()
	t, ok := scope.Lookup(v.typ).(*types.TypeName)
	if !ok {
		return nil, false
	}
	iface, byType := t.Type().Underlying().(*types.Interface)
	members := map[string]types.Object{}
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Const:
			if !byType && obj.Exported() && types.Identical(obj.Type(), t.Type()) {
				members[name] = obj
			}
		case *types.TypeName:
			if byType && obj.Exported() && !types.IsInterface(obj.Type()) &&
				types.Implements(types.NewPointer(obj.Type()), iface) {
				members[name] = obj
			}
		}
	}
	return members, byType
}

// caseIdent returns the identifier a case label names (K, pkg.K, *pkg.T),
// or nil for any other expression.
func caseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}
