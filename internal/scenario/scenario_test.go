package scenario

import (
	"fmt"
	"strings"
	"testing"

	"thalia/internal/benchmark"
	"thalia/internal/hetero"
	"thalia/internal/integration"
	"thalia/internal/schemamatch"
	"thalia/internal/xmldom"
)

func TestParseMix(t *testing.T) {
	cases := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{in: "", want: "uniform"},
		{in: "uniform", want: "uniform"},
		{in: "synonyms", want: "synonyms:1"},
		{in: "synonyms:2,nulls,7:3", want: "synonyms:2,nulls:1,virtual-columns:3"},
		{in: "1,2,3,4,5,6,7,8,9,10,11,12", want: "uniform"},
		{in: "bogus", wantErr: true},
		{in: "synonyms:x", wantErr: true},
		{in: "synonyms:-1", wantErr: true},
		{in: "13", wantErr: true},
		{in: "synonyms:1000000,synonyms:1", wantErr: true},
		{in: "synonyms:0", wantErr: true},
	}
	for _, tc := range cases {
		m, err := ParseMix(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseMix(%q): want error, got %v", tc.in, m)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParseMix(%q): %v", tc.in, err)
		}
		if got := m.String(); got != tc.want {
			t.Errorf("ParseMix(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
		// The grammar round-trips: parsing the rendering gives the same mix.
		again, err := ParseMix(m.String())
		if err != nil {
			t.Fatalf("ParseMix(%q) round-trip: %v", m.String(), err)
		}
		if again.String() != m.String() {
			t.Errorf("mix round-trip: %q != %q", again.String(), m.String())
		}
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{Sources: 0},
		{Sources: MaxSources + 1},
		{Sources: 5, Size: 1},
		{Sources: 5, Size: MaxSize + 1},
		{Sources: 5, Mix: Mix{}},
		{Sources: 5, Mix: Mix{hetero.Case(99): 1}},
	}
	for _, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("New(%+v): want error", p)
		}
	}
	sc, err := New(Params{Sources: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := sc.Params().Size; got != DefaultSize {
		t.Errorf("default size = %d, want %d", got, DefaultSize)
	}
}

func TestNameIndexRoundTrip(t *testing.T) {
	sc, err := New(Params{Sources: 42, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 7, 41} {
		name := sc.Name(i)
		for _, form := range []string{name, name + ".xml"} {
			got, err := sc.Index(form)
			if err != nil || got != i {
				t.Errorf("Index(%q) = %d, %v; want %d", form, got, err, i)
			}
		}
	}
	for _, bad := range []string{"", "x00001", "s00000", "s00043", "cmu"} {
		if _, err := sc.Index(bad); err == nil {
			t.Errorf("Index(%q): want error", bad)
		}
	}
}

func rowsMatch(t *testing.T, label string, want, got []integration.Row) {
	t.Helper()
	missing, extra := integration.MatchRows(want, got)
	if len(missing) > 0 || len(extra) > 0 {
		t.Errorf("%s: rows differ\n  missing: %v\n  extra: %v", label, missing, extra)
	}
}

// TestClassConformance is the per-class property suite: for every
// heterogeneity class, a single-class scenario must (a) assign the class,
// (b) render a document pair that internal/schemamatch diagnoses as
// exactly that class, (c) plant at least one answer row, (d) agree with
// the plan engine over the reference document where that is expressible,
// and (e) be answered correctly by the mediator over the challenge
// document.
func TestClassConformance(t *testing.T) {
	for _, cse := range hetero.AllCases() {
		cse := cse
		t.Run(fmt.Sprintf("case%d", int(cse)), func(t *testing.T) {
			sc, err := New(Params{Sources: 3, Seed: 7, Mix: Mix{cse: 1}, Size: 6})
			if err != nil {
				t.Fatal(err)
			}
			med := sc.NewMediator()
			for i := 0; i < sc.Sources(); i++ {
				if got := sc.Case(i); got != cse {
					t.Fatalf("source %d: case %v, want %v", i, got, cse)
				}
				ref, chal := sc.ReferenceDocument(i), sc.ChallengeDocument(i)
				detected := schemamatch.DetectDocs(ref, chal)
				if len(detected) != 1 || detected[0].Case != cse {
					t.Errorf("source %d: DetectDocs = %v, want exactly [%v]", i, detected, cse)
				}
				truth := sc.Truth(i)
				if len(truth) == 0 {
					t.Fatalf("source %d: empty expected answer (no planted row)", i)
				}
				refRows, checkable, err := sc.RefRows(i)
				if err != nil {
					t.Fatalf("source %d: RefRows: %v", i, err)
				}
				if checkable {
					rowsMatch(t, fmt.Sprintf("source %d: plan engine vs truth", i), truth, refRows)
				} else if cse != hetero.LanguageExpression && cse != hetero.SemanticIncompatibility {
					t.Errorf("source %d: case %v should be ref-checkable", i, cse)
				}
				ans, err := med.Answer(integration.Request{QueryID: i + 1, Challenge: sc.Name(i)})
				if err != nil {
					t.Fatalf("source %d: mediator: %v", i, err)
				}
				rowsMatch(t, fmt.Sprintf("source %d: mediator vs truth", i), truth, ans.Rows)
				wantEffort, wantFns := effortFor(cse)
				if ans.Effort != wantEffort || len(ans.Functions) != len(wantFns) {
					t.Errorf("source %d: effort %v/%d functions, want %v/%d",
						i, ans.Effort, len(ans.Functions), wantEffort, len(wantFns))
				}
			}
		})
	}
}

// TestGeneratedDocumentsParse proves rendered challenge XML is well-formed
// by round-tripping it through the parser.
func TestGeneratedDocumentsParse(t *testing.T) {
	sc, err := New(Params{Sources: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sc.Sources(); i++ {
		doc, err := xmldom.ParseString(sc.ChallengeXML(i))
		if err != nil {
			t.Errorf("source %d: %v", i, err)
			continue
		}
		if doc.Root.Name != "catalog" {
			t.Errorf("source %d: root %q", i, doc.Root.Name)
		}
	}
}

// TestScorecardsByteIdenticalAcrossPools is the determinism gate: for a
// fixed seed, the rendered ranked scorecard must be byte-identical at any
// worker-pool size. Run under -race in CI, this also stresses the
// mediator's concurrency contract.
func TestScorecardsByteIdenticalAcrossPools(t *testing.T) {
	for _, seed := range []int64{1, 5, 9} {
		var want string
		for _, pool := range []int{1, 2, 8} {
			sc, err := New(Params{Sources: 24, Seed: seed, Size: 4})
			if err != nil {
				t.Fatal(err)
			}
			r := benchmark.NewStreamingRunner(sc.Queries())
			r.Concurrency = pool
			cards, err := r.EvaluateAll(sc.NewMediator())
			if err != nil {
				t.Fatal(err)
			}
			got := cards[0].Format() + benchmark.Summary(cards[0])
			if pool == 1 {
				want = got
				if c := cards[0].CorrectCount(); c != 24 {
					t.Fatalf("seed %d: %d/24 correct:\n%s", seed, c, got)
				}
				continue
			}
			if got != want {
				t.Errorf("seed %d: scorecard at pool %d differs from pool 1:\n%s\n--- want ---\n%s",
					seed, pool, got, want)
			}
		}
	}
}

// TestMixSkew checks that a skewed mix is honored: a weight-only-synonyms
// mix assigns every source case 1, and a heavy skew dominates the totals.
func TestMixSkew(t *testing.T) {
	sc, err := New(Params{Sources: 40, Seed: 11, Mix: Mix{hetero.Synonyms: 1}})
	if err != nil {
		t.Fatal(err)
	}
	totals := sc.ClassTotals()
	if totals[hetero.Synonyms] != 40 {
		t.Errorf("single-class mix: totals = %v", totals)
	}
	sc, err = New(Params{Sources: 200, Seed: 11, Mix: Mix{hetero.Synonyms: 9, hetero.Nulls: 1}})
	if err != nil {
		t.Fatal(err)
	}
	totals = sc.ClassTotals()
	if totals[hetero.Synonyms] <= totals[hetero.Nulls] {
		t.Errorf("9:1 skew not honored: %v", totals)
	}
	if totals[hetero.Synonyms]+totals[hetero.Nulls] != 200 {
		t.Errorf("cases outside the mix assigned: %v", totals)
	}
}

// TestTaxonomyCovered pins the generator's vocabulary to the full THALIA
// taxonomy by name, in order. A class added to internal/hetero without
// generator support fails here (and trips the scenariocoverage analyzer);
// one removed fails the length check.
func TestTaxonomyCovered(t *testing.T) {
	want := []hetero.Case{
		hetero.Synonyms,
		hetero.SimpleMapping,
		hetero.UnionTypes,
		hetero.ComplexMappings,
		hetero.LanguageExpression,
		hetero.Nulls,
		hetero.VirtualColumns,
		hetero.SemanticIncompatibility,
		hetero.SameAttributeDifferentStructure,
		hetero.HandlingSets,
		hetero.AttributeNameDoesNotDefineSemantics,
		hetero.AttributeComposition,
	}
	got := hetero.AllCases()
	if len(got) != len(want) {
		t.Fatalf("taxonomy has %d classes, generator covers %d", len(got), len(want))
	}
	for i, c := range want {
		if got[i] != c {
			t.Errorf("class %d: %v, want %v", i, got[i], c)
		}
	}
	// Every class is generable: the uniform mix names them all.
	uniform, err := ParseMix("uniform")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range want {
		if uniform[c] != 1 {
			t.Errorf("uniform mix omits %v", c)
		}
	}
}

func TestDetectDocsNilSafe(t *testing.T) {
	if got := schemamatch.DetectDocs(nil, nil); got != nil {
		t.Errorf("DetectDocs(nil, nil) = %v", got)
	}
}

func TestQuerySpecStable(t *testing.T) {
	sc, err := New(Params{Sources: 6, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sc.Sources(); i++ {
		a, b := sc.Spec(i), sc.Spec(i)
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Fatalf("source %d: Spec not stable", i)
		}
		if !strings.Contains(a.XQuery, sc.Name(i)+".xml") {
			t.Errorf("source %d: query does not reference its own document: %s", i, a.XQuery)
		}
	}
}
