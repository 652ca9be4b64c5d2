package thalia

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"thalia/internal/analysis"
)

// testOnlyExports lists the exported identifiers under internal/ that only
// tests use, with the reason each earns its place. A key is the package
// path below internal/, then the receiver type for a method, then the name:
// "xmldom.MustParse", "explain.Trace.Outline". Every other export must have
// a caller in some non-test file, so code no program runs cannot pile up
// behind its own tests.
var testOnlyExports = map[string]string{
	"benchmark.Scorecard.Result":          "tests read one query's outcome from a scorecard by query ID",
	"catalog.BrownDeepWrapper":            "BenchmarkAblation_DeepExtraction's hand-written deep wrapper, the baseline generic extraction is measured against",
	"catalog.Source.Fetch":                "BenchmarkAblation_DeepExtraction follows Brown's course links through it",
	"explain.Trace.LeafNanos":             "explain tests check that operator self-times sum to the recorded whole",
	"explain.Trace.Outline":               "explain and plan tests, and the explain goldens, read a trace's operator tree without timings",
	"mapping.To12Hour":                    "the inverse of the 24-hour transform, the oracle of its round-trip property",
	"mapping.Lexicon.ToGerman":            "the definition ValueContains is checked against, and the paper's query 5 expansion",
	"scenario.Scenario.ChallengeXML":      "scenario tests and fuzz targets parse a challenge document back from XML text",
	"scenario.Scenario.ClassTotals":       "scenario tests check how a mix spreads sources over heterogeneity classes",
	"scenario.Scenario.RefRows":           "scenario tests check generated truth against an independent evaluation",
	"scenario.Scenario.ReferenceDocument": "scenario and detector tests read a source in the reference shape",
	"xmldom.Document.EncodeCompact":       "xmldom tests and its fuzz target check the compact encoding round-trips",
	"xmldom.Equal":                        "round-trip tests compare two parses of a document structurally; its only other use is its own recursion",
	"xmldom.MustParse":                    "tests parse fixed XML fixtures",
	"xquery.Context.Bind":                 "plan tests bind external variables that both XQuery engines must treat identically",
	"xquery/plan.Plan.Dump":               "feeds the plan goldens",
}

// TestEveryInternalExportHasACaller type-checks every non-test Go file in
// the tree (the module, bench/ and examples/) and fails for each exported
// func, method, type, const or var declared under internal/ that no
// non-test file uses outside its own declaration. Uses are matched by typed
// object, so an export does not escape because another identifier shares
// its name. A method also counts as used when its type implements an
// interface the program names, or fmt.Stringer, and the method is one of
// that interface's.
func TestEveryInternalExportHasACaller(t *testing.T) {
	var pkgs []*analysis.GoPackage
	for _, dir := range []string{".", "bench"} {
		abs, err := filepath.Abs(dir)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := analysis.LoadGoPackages(abs, "./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, loaded...)
	}

	type decl struct {
		key, file, pkg string
		start, end     token.Pos
		method         *types.Func
	}
	type use struct {
		pkg string
		pos token.Pos
	}
	var decls []decl
	uses := map[string][]use{}
	ifaces := []methodSigs{{"String": "() (string)"}} // fmt.Stringer, which fmt asserts at run time
	seenIface := map[string]bool{}
	var addIface func(typ types.Type)
	addIface = func(typ types.Type) {
		switch x := typ.(type) {
		case *types.Signature:
			for _, tup := range []*types.Tuple{x.Params(), x.Results()} {
				for i := 0; i < tup.Len(); i++ {
					addIface(tup.At(i).Type())
				}
			}
		case *types.Pointer:
			addIface(x.Elem())
		case *types.Slice:
			addIface(x.Elem())
		default:
			if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[typeKey(typ)] {
				seenIface[typeKey(typ)] = true
				ifaces = append(ifaces, interfaceSigs(it))
			}
		}
	}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			addIface(obj.Type())
			// Only package-level objects and methods can be exports; a
			// field or local of the same name is another object.
			if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "thalia/internal/") {
				continue
			}
			if fn, ok := obj.(*types.Func); (ok && fn.Type().(*types.Signature).Recv() != nil) || obj.Parent() == obj.Pkg().Scope() {
				k := exportKey(obj)
				uses[k] = append(uses[k], use{p.ImportPath, id.Pos()})
			}
		}
		for _, obj := range p.Info.Defs {
			if obj != nil {
				addIface(obj.Type())
			}
		}
		if !strings.HasPrefix(p.ImportPath, "thalia/internal/") {
			continue
		}
		for _, f := range p.Files {
			file, _, _ := p.Position(f.Pos())
			add := func(id *ast.Ident, node ast.Node) {
				if !id.IsExported() {
					return
				}
				obj := p.Info.Defs[id]
				d := decl{key: exportKey(obj), file: file, pkg: p.ImportPath, start: node.Pos(), end: node.End()}
				if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
					d.method = fn
				}
				decls = append(decls, d)
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, s)
							}
						}
					}
				}
			}
		}
	}

	allowed := map[string]bool{}
	for _, d := range decls {
		used := false
		for _, u := range uses[d.key] {
			if u.pkg != d.pkg || u.pos < d.start || u.pos >= d.end {
				used = true
				break
			}
		}
		if used || (d.method != nil && satisfiesInterface(d.method, ifaces)) {
			continue
		}
		if _, ok := testOnlyExports[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		t.Errorf("%s: %s is exported but no non-test file uses it; delete it, or list it in testOnlyExports with the reason a test needs it", d.file, d.key)
	}
	for key := range testOnlyExports {
		if !allowed[key] {
			t.Errorf("testOnlyExports lists %s, but it is not an internal export that only tests use; drop the entry", key)
		}
	}
}

// exportKey names an object the way testOnlyExports does: its package path
// below internal/, the receiver type for a method, and its name.
func exportKey(obj types.Object) string {
	pkg := strings.TrimPrefix(obj.Pkg().Path(), "thalia/internal/")
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			if named, ok := rt.(*types.Named); ok {
				return pkg + "." + named.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return pkg + "." + obj.Name()
}

// methodSigs maps each method name of an interface or method set to its
// signature, written without parameter names.
type methodSigs map[string]string

func interfaceSigs(it *types.Interface) methodSigs {
	out := methodSigs{}
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		out[m.Name()] = sigKey(m.Type().(*types.Signature))
	}
	return out
}

// satisfiesInterface reports whether m's receiver type implements one of
// ifaces that has a method named like m. Each package is type-checked on
// its own, so the same type imported into two packages is two types.Type
// values; signatures are therefore compared as package-qualified strings.
func satisfiesInterface(m *types.Func, ifaces []methodSigs) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	mset := types.NewMethodSet(types.NewPointer(recv))
	have := methodSigs{}
	for i := 0; i < mset.Len(); i++ {
		f := mset.At(i).Obj()
		have[f.Name()] = sigKey(f.Type().(*types.Signature))
	}
	for _, want := range ifaces {
		if _, ok := want[m.Name()]; !ok {
			continue
		}
		implements := true
		for name, sig := range want {
			if have[name] != sig {
				implements = false
				break
			}
		}
		if implements {
			return true
		}
	}
	return false
}

func sigKey(sig *types.Signature) string {
	tuple := func(tup *types.Tuple) string {
		parts := make([]string, tup.Len())
		for i := range parts {
			parts[i] = typeKey(tup.At(i).Type())
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	variadic := ""
	if sig.Variadic() {
		variadic = "..."
	}
	return tuple(sig.Params()) + variadic + " " + tuple(sig.Results())
}

func typeKey(typ types.Type) string {
	return types.TypeString(typ, func(p *types.Package) string { return p.Path() })
}
