package analysis

import (
	"strings"
	"testing"

	"thalia/internal/benchmark"
	"thalia/internal/rewrite"
	"thalia/internal/xsd"
)

// TestComplexityCrossCheckClean is the acceptance gate for the complexity
// cross-check: with the default waivers, every estimate either matches the
// reference mediator's charged level or carries a documented waiver, so the
// check reports nothing on the real repository.
func TestComplexityCrossCheckClean(t *testing.T) {
	fs := CheckComplexity(benchmark.Queries(), nil, nil)
	for _, f := range fs {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestComplexityEstimates pins the estimator's level for every benchmark
// query, so recalibrations are deliberate.
func TestComplexityEstimates(t *testing.T) {
	want := map[int]ComplexityLevel{
		1:  ComplexityLow, // waived: charged none
		2:  ComplexityLow,
		3:  ComplexityLow, // waived: charged medium
		4:  ComplexityHigh,
		5:  ComplexityHigh,
		6:  ComplexityMedium,
		7:  ComplexityMedium,
		8:  ComplexityHigh,
		9:  ComplexityMedium,
		10: ComplexityMedium,
		11: ComplexityMedium,
		12: ComplexityMedium,
	}
	for _, q := range benchmark.Queries() {
		sch, err := CatalogSchemaFor(q.ChallengeSource)
		if err != nil {
			t.Fatalf("query %d: %v", q.ID, err)
		}
		est, err := EstimateComplexity(q, sch)
		if err != nil {
			t.Fatalf("query %d: %v", q.ID, err)
		}
		if est.Level != want[q.ID] {
			t.Errorf("query %d: estimated %v (%s), want %v", q.ID, est.Level, est.Explain(), want[q.ID])
		}
	}
}

// TestComplexityTranslationDetected: the German-language challenge schemas
// must be recognized as needing translation (the high-complexity gap).
func TestComplexityTranslationDetected(t *testing.T) {
	eth, err := CatalogSchemaFor("eth")
	if err != nil {
		t.Fatal(err)
	}
	if !schemaNeedsTranslation(eth) {
		t.Error("eth schema not detected as needing translation")
	}
	cmu, err := CatalogSchemaFor("cmu")
	if err != nil {
		t.Fatal(err)
	}
	if schemaNeedsTranslation(cmu) {
		t.Error("cmu schema spuriously detected as needing translation")
	}
}

// TestComplexityDivergenceWithoutWaiver: removing the waivers must surface
// the two known divergences (queries 1 and 3) and nothing else.
func TestComplexityDivergenceWithoutWaiver(t *testing.T) {
	fs := CheckComplexity(benchmark.Queries(), nil, map[int]ComplexityWaiver{})
	if len(fs) != 2 {
		t.Fatalf("findings = %v, want exactly 2 (queries 1 and 3)", fs)
	}
	for i, wantQ := range []int{1, 3} {
		if fs[i].QueryID != wantQ || fs[i].Check != "complexity" {
			t.Errorf("finding %d = %+v, want complexity divergence for query %d", i, fs[i], wantQ)
		}
		if !strings.Contains(fs[i].Message, "complexity divergence") {
			t.Errorf("finding %d message = %q, want divergence wording", i, fs[i].Message)
		}
	}
}

// TestComplexityStaleWaiver: a waiver on a query whose estimate agrees with
// the charged level must itself be reported, so waivers cannot quietly outlive
// their reason.
func TestComplexityStaleWaiver(t *testing.T) {
	waivers := map[int]ComplexityWaiver{
		1: DefaultComplexityWaivers[1],
		3: DefaultComplexityWaivers[3],
		2: {Estimated: ComplexityHigh, Reason: "obsolete"},
	}
	fs := CheckComplexity(benchmark.Queries(), nil, waivers)
	if len(fs) != 1 || fs[0].QueryID != 2 || !strings.Contains(fs[0].Message, "stale waiver") {
		t.Fatalf("findings = %v, want one stale-waiver finding for query 2", fs)
	}
}

// TestComplexityWaiverPinsCharge: a waiver whose charged level no longer
// matches the reference mediator's is out of date even while the estimate
// still matches, so a changed charge cannot hide behind an old waiver.
func TestComplexityWaiverPinsCharge(t *testing.T) {
	w := DefaultComplexityWaivers[3]
	w.Charged = ComplexityHigh
	waivers := map[int]ComplexityWaiver{1: DefaultComplexityWaivers[1], 3: w}
	fs := CheckComplexity(benchmark.Queries(), nil, waivers)
	if len(fs) != 1 || fs[0].QueryID != 3 || !strings.Contains(fs[0].Message, "waiver out of date") ||
		!strings.Contains(fs[0].Message, "charge high") {
		t.Fatalf("findings = %v, want one out-of-date waiver finding for query 3 naming charge high", fs)
	}
}

func TestComplexityLevelString(t *testing.T) {
	for level, want := range map[ComplexityLevel]string{
		ComplexityNone: "none", ComplexityLow: "low",
		ComplexityMedium: "medium", ComplexityHigh: "high",
		ComplexityLevel(9): "unknown",
	} {
		if got := level.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(level), got, want)
		}
	}
}

// TestMappingsCheckClean: the declarative mediation tables resolve fully
// against the real catalog schemas.
func TestMappingsCheckClean(t *testing.T) {
	fs := CheckMappings(rewrite.NewMediator(), nil, nil)
	for _, f := range fs {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestMappingsCheckSeededDefects verifies the mapping checks actually
// fire: pointing every source at a foreign schema must produce mapping
// findings (dead record elements, unresolved field paths), each naming the
// offending source.
func TestMappingsCheckSeededDefects(t *testing.T) {
	sch := testSchema()
	fs := CheckMappings(rewrite.NewMediator(),
		func(string) (*xsd.Schema, error) { return sch, nil }, nil)
	if len(fs) == 0 {
		t.Fatal("expected findings when every source resolves to a foreign schema")
	}
	for _, f := range fs {
		if f.Check != "mapping" {
			t.Errorf("finding %s has check %q, want mapping", f, f.Check)
		}
	}
}

// TestCatalogsCheckClean: every testbed source materializes, validates
// against its own schema, and round-trips its schema serialization.
func TestCatalogsCheckClean(t *testing.T) {
	fs := CheckCatalogs()
	for _, f := range fs {
		t.Errorf("unexpected finding: %s", f)
	}
}
