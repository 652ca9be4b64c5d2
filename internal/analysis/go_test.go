package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFixtureModule lays out a throwaway module seeded with the defects
// the Go head must catch, and returns its root directory.
func writeFixtureModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.24\n",
		"gen/gen.go": `package gen

import (
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Stamp is nondeterministic: wall clock in generator code.
func Stamp() string { return time.Now().String() }

// Pick is nondeterministic: map order leaks into the returned slice.
func Pick(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Sorted is fine: the function sorts what it collected.
func Sorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Tally is fine: the map range only feeds another map.
func Tally(m map[string]int) map[string]bool {
	out := map[string]bool{}
	for k := range m {
		out[k] = true
	}
	return out
}

// Render is nondeterministic: map order leaks into a builder.
func Render(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k)
	}
	return b.String()
}

// Seed uses math/rand (already flagged at the import).
func Seed() int { return rand.Int() }
`,
		"lib/lib.go": `package lib

import "errors"

// Parse panics via a helper: reachable from an exported entry point.
func Parse(s string) string { return inner(s) }

func inner(s string) string {
	if s == "" {
		panic("empty input")
	}
	return s
}

// MustGet panics by contract; the Must prefix exempts it as a root.
func MustGet() string { panic("must") }

// orphan panics but nothing exported reaches it.
func orphan() { panic("unreachable") }

func fail() error { return errors.New("boom") }

// Drop discards fail's error: an errcheck finding.
func Drop() { fail() }

// Keep handles the error properly.
func Keep() error { return fail() }

var _ = orphan
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestGoAnalyzersOnFixture pins what each Go analyzer reports on a module
// seeded with exactly the defect classes thalia-vet exists to catch — and
// what it stays silent about.
func TestGoAnalyzersOnFixture(t *testing.T) {
	dir := writeFixtureModule(t)
	pkgs, err := LoadGoPackages(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}

	analyzers := []*GoAnalyzer{
		DeterminismFor([]string{"fixture/gen"}),
		PanicPath(),
		ErrCheckFor([]string{"fixture/lib"}),
	}
	rep := &Report{Findings: RunGoAnalyzers(pkgs, analyzers)}
	rep.Sort()

	wantSubstrings := []string{
		`gen/gen.go:4:2: [determinism] import of math/rand in deterministic generator code`,
		`gen/gen.go:11:30: [determinism] time.Now in deterministic generator code`,
		`gen/gen.go:16:2: [determinism] map iteration order leaks into ordered output in Pick (sort the keys first)`,
		`gen/gen.go:44:2: [determinism] map iteration order leaks into ordered output in Render (sort the keys first)`,
		`lib/lib.go:10:3: [panicpath] panic reachable from exported API: lib.Parse → lib.inner`,
		`lib/lib.go:24:15: [errcheck] result of fail() contains an error that is silently discarded`,
	}
	got := strings.TrimSpace(rep.Text())
	gotLines := strings.Split(got, "\n")
	if len(gotLines) != len(wantSubstrings) {
		t.Fatalf("got %d findings, want %d:\n%s", len(gotLines), len(wantSubstrings), got)
	}
	for i, want := range wantSubstrings {
		if gotLines[i] != want {
			t.Errorf("finding %d = %q, want %q", i, gotLines[i], want)
		}
	}
}

// TestGoAnalyzersFixtureSilence spells out the negative space of the
// fixture test: no findings for sorted or map-to-map iterations, for the
// Must-prefixed panic, for the unreachable panic, or for handled errors.
func TestGoAnalyzersFixtureSilence(t *testing.T) {
	dir := writeFixtureModule(t)
	pkgs, err := LoadGoPackages(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	analyzers := []*GoAnalyzer{
		DeterminismFor([]string{"fixture/gen"}),
		PanicPath(),
		ErrCheckFor([]string{"fixture/lib"}),
	}
	for _, f := range RunGoAnalyzers(pkgs, analyzers) {
		for _, quiet := range []string{"Sorted", "Tally", "MustGet", "orphan", "Keep"} {
			if strings.Contains(f.Message, quiet) {
				t.Errorf("unexpected finding about %s: %s", quiet, f)
			}
		}
	}
}

// TestGoAnalyzersRepoClean is the acceptance gate for the Go head: the
// whole repository analyzes clean with the default analyzer set, i.e.
// thalia-vet passing on this codebase is a checked invariant, not luck.
func TestGoAnalyzersRepoClean(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadGoPackages(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loaded only %d packages from the repo", len(pkgs))
	}
	for _, f := range RunGoAnalyzers(pkgs, DefaultGoAnalyzers()) {
		t.Errorf("unexpected finding: %s", f)
	}
}

// at points a vocabulary row at other packages, so the analyzer tests can
// run it against fixture modules.
func (v vocabulary) at(decl, consumer string) vocabulary {
	v.decl, v.consumer = decl, consumer
	return v
}

// TestGoCheckTable pins the Go head's check table: the names in order, and
// the Doc of each kind-coverage row. Finding IDs hash the check name and
// SARIF rules carry the Doc, so a dropped or renamed row would orphan
// vet.baseline.json entries and SARIF rules without failing anything else.
func TestGoCheckTable(t *testing.T) {
	var names []string
	docs := map[string]string{}
	for _, a := range DefaultGoAnalyzers() {
		names = append(names, a.Name)
		docs[a.Name] = a.Doc
	}
	want := []string{
		"determinism", "panicpath", "errcheck", "explainkinds", "faultkinds",
		"plancoverage", "scenariocoverage", "ctxflow", "lockdiscipline",
		"goleak", "mapflow", "telemetrycontract",
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("checks = %v, want %v", names, want)
	}
	for check, doc := range map[string]string{
		"explainkinds":     "every explain.Kind constant is emitted by at least one instrumentation site",
		"faultkinds":       "every faultline.Kind has an injection dispatch site and a test exercising it",
		"plancoverage":     "every xquery Expr node kind has a compile case in the plan package and a test exercising it",
		"scenariocoverage": "every hetero.Case has a transform dispatch site in the scenario generator and a test exercising it",
	} {
		if docs[check] != doc {
			t.Errorf("%s doc = %q, want %q", check, docs[check], doc)
		}
	}
}

// TestExplainKindsDetectsDeadVocabulary proves the analyzer can actually
// fail: with only the explain package in scope there are no instrumentation
// sites, so every Kind constant must be reported as unemitted. The count
// also pins the size of the trace vocabulary — adding a Kind without an
// emitter breaks TestGoAnalyzersRepoClean, adding one with an emitter
// updates this number.
func TestExplainKindsDetectsDeadVocabulary(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadGoPackages(root, "./internal/explain")
	if err != nil {
		t.Fatal(err)
	}
	findings := explainKinds.analyzer().Run(pkgs)
	const wantKinds = 18
	if len(findings) != wantKinds {
		t.Errorf("got %d findings, want %d (one per Kind constant)", len(findings), wantKinds)
	}
	for _, f := range findings {
		if f.Check != "explainkinds" || !strings.Contains(f.Message, "no instrumentation site emits it") {
			t.Errorf("malformed finding: %s", f)
		}
		if !strings.HasPrefix(f.File, "internal/explain/") || f.Line == 0 {
			t.Errorf("finding lacks a declaration position: %s", f)
		}
	}
}

// TestFaultKindsDetectsUnwiredKinds proves the faultkinds analyzer can
// fail: a fixture Kind vocabulary where one constant is fully wired (a
// switch case dispatches on it, a test names it), one has no dispatch site,
// and one appears in no test.
func TestFaultKindsDetectsUnwiredKinds(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.24\n",
		"chaos/chaos.go": `package chaos

// Kind names one injectable fault.
type Kind string

const (
	KindWired    Kind = "wired"    // dispatched and tested
	KindNoSwitch Kind = "noswitch" // tested but never dispatched
	KindNoTest   Kind = "notest"   // dispatched but never tested
)

// Apply dispatches two of the three kinds.
func Apply(k Kind) string {
	switch k {
	case KindWired:
		return "wired"
	case KindNoTest:
		return "untested"
	}
	return ""
}
`,
		"chaos/chaos_test.go": `package chaos

import "testing"

func TestApply(t *testing.T) {
	if Apply(KindWired) != "wired" {
		t.Fail()
	}
	_ = KindNoSwitch
}
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := LoadGoPackages(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	findings := faultKinds.at("fixture/chaos", "fixture/chaos").analyzer().Run(pkgs)
	want := []string{
		"faultline.KindNoSwitch has no injection dispatch site",
		"faultline.KindNoTest is exercised by no test",
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(findings), len(want), findings)
	}
	for i, w := range want {
		if findings[i].Check != "faultkinds" || !strings.Contains(findings[i].Message, w) {
			t.Errorf("finding %d = %s, want %q", i, findings[i], w)
		}
		if !strings.HasPrefix(findings[i].File, "chaos/") || findings[i].Line == 0 {
			t.Errorf("finding lacks a declaration position: %s", findings[i])
		}
	}
	// Nothing to report about the fully wired kind.
	for _, f := range findings {
		if strings.Contains(f.Message, "KindWired") {
			t.Errorf("unexpected finding about KindWired: %s", f)
		}
	}
}

// TestPlanCoverageDetectsUnloweredKinds proves the plancoverage analyzer
// can fail, against the vetmod fixture: LitExpr is fully wired (compile
// case plus test mention) and stays quiet, AddExpr compiles but no fixture
// test names it, DropExpr has no compile case at all.
func TestPlanCoverageDetectsUnloweredKinds(t *testing.T) {
	pkgs := loadVetmod(t)
	findings := planCoverage.at("vetmod/qast", "vetmod/qplan").analyzer().Run(pkgs)
	checkFindings(t, findings, "plancoverage", []string{
		"xquery.AddExpr is exercised by no test in the plan package",
		"xquery.DropExpr has no compile case in the plan package",
	}, []string{"LitExpr", "Helper"})
	for _, f := range findings {
		if !strings.HasPrefix(f.File, "qast/") || f.Line == 0 {
			t.Errorf("finding lacks a declaration position: %s", f)
		}
	}
}

// TestScenarioCoverageDetectsUndispatchedClasses proves the
// scenariocoverage analyzer can fail, against the vetmod fixture: CaseWired
// is fully wired (dispatch switch case plus test mention) and stays quiet,
// CaseNoSwitch has no dispatch site in the generator, CaseNoTest is
// dispatched but no fixture test names it.
func TestScenarioCoverageDetectsUndispatchedClasses(t *testing.T) {
	pkgs := loadVetmod(t)
	findings := scenarioCoverage.at("vetmod/hcase", "vetmod/sgen").analyzer().Run(pkgs)
	checkFindings(t, findings, "scenariocoverage", []string{
		"hetero.CaseNoSwitch has no transform dispatch site in the scenario generator",
		"hetero.CaseNoTest is exercised by no test in the scenario package",
	}, []string{"CaseWired", "hidden", "Budget"})
	for _, f := range findings {
		if !strings.HasPrefix(f.File, "hcase/") || f.Line == 0 {
			t.Errorf("finding lacks a declaration position: %s", f)
		}
	}
}

// TestLoadGoPackagesPositions: findings must be reported with repo-relative
// paths, which requires the loader to record the module root.
func TestLoadGoPackagesPositions(t *testing.T) {
	dir := writeFixtureModule(t)
	pkgs, err := LoadGoPackages(dir, "./gen")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	file, line, _ := p.Position(p.Files[0].Package)
	if file != "gen/gen.go" || line != 1 {
		t.Errorf("Position = %s:%d, want gen/gen.go:1", file, line)
	}
}
