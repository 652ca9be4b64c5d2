package thalia

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyExports lists the exported names under internal/ that only tests
// use, with the reason each earns its place. Every other exported name must
// appear in some non-test file, so code no program runs cannot pile up
// behind its own tests.
var testOnlyExports = map[string]string{
	"BrownDeepWrapper":   "BenchmarkAblation_DeepExtraction's hand-written deep wrapper, the baseline generic extraction is measured against",
	"Fetch":              "BenchmarkAblation_DeepExtraction follows Brown's course links through it",
	"LeafNanos":          "explain tests check that operator self-times sum to the recorded whole",
	"Outline":            "explain and plan tests, and the explain goldens, read a trace's operator tree without timings",
	"To12Hour":           "the inverse of the 24-hour transform, the oracle of its round-trip property",
	"ToGerman":           "the definition ValueContains is checked against, and the paper's query 5 expansion",
	"SetEqIndexDisabled": "the index oracle: tests compare indexed and unindexed minidb results",
	"RefRows":            "scenario tests check generated truth against an independent evaluation",
	"ReferenceDocument":  "scenario and detector tests read a source in the reference shape",
	"ChallengeXML":       "scenario tests and fuzz targets parse a challenge document back from XML text",
	"ClassTotals":        "scenario tests check how a mix spreads sources over heterogeneity classes",
	"MustParse":          "tests parse fixed XML fixtures",
	"EncodeCompact":      "xmldom tests and its fuzz target check the compact encoding round-trips",
	"Bind":               "plan tests bind external variables that both XQuery engines must treat identically",
	"Dump":               "feeds the plan goldens",
	"Equal":              "round-trip tests compare two parses of a document structurally; its only other use is its own recursion",
}

// TestEveryInternalExportHasACaller parses every non-test Go file in the
// tree (the module, bench/ and examples/) and fails for each exported func,
// method, type, const or var declared under internal/ whose name appears in
// no non-test file outside its own declaration.
func TestEveryInternalExportHasACaller(t *testing.T) {
	type decl struct {
		name       string
		file       string
		start, end token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	uses := map[string][]token.Pos{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		add := func(id *ast.Ident, node ast.Node) {
			if id.IsExported() {
				decls = append(decls, decl{id.Name, path, node.Pos(), node.End()})
			}
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, d := range decls {
		used := false
		for _, p := range uses[d.name] {
			if p < d.start || p >= d.end {
				used = true
				break
			}
		}
		if used {
			continue
		}
		if _, ok := testOnlyExports[d.name]; ok {
			allowed[d.name] = true
			continue
		}
		t.Errorf("%s: %s is exported but no non-test file uses it; delete it, or list it in testOnlyExports with the reason a test needs it", d.file, d.name)
	}
	for name := range testOnlyExports {
		if !allowed[name] {
			t.Errorf("testOnlyExports lists %s, but it is not an internal export that only tests use; drop the entry", name)
		}
	}
}
