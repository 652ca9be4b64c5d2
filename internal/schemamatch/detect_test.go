package schemamatch

import (
	"testing"

	"thalia/internal/benchmark"
	"thalia/internal/catalog"
	"thalia/internal/hetero"
	"thalia/internal/scenario"
	"thalia/internal/xmldom"
)

// testbedDoc returns the named testbed source's extracted document.
func testbedDoc(t testing.TB, name string) *xmldom.Document {
	t.Helper()
	src, err := catalog.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := src.Document()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return doc
}

// The detector must rediscover, for every benchmark source pair, the
// heterogeneity case the paper assigned to that pair — the manual
// classification of Section 3, automated.
func TestDetectorRecoversAllBenchmarkCases(t *testing.T) {
	for _, q := range benchmark.Queries() {
		dets := DetectDocs(testbedDoc(t, q.Reference), testbedDoc(t, q.ChallengeSource))
		found := false
		for _, d := range dets {
			if d.Case == q.Case {
				found = true
				if d.Evidence == "" {
					t.Errorf("query %d: detection without evidence", q.ID)
				}
			}
		}
		if !found {
			t.Errorf("query %d (%s vs %s): detector missed %v; found %v",
				q.ID, q.Reference, q.ChallengeSource, q.Case, dets)
		}
	}
}

// Detections come back sorted and deduplicable by case.
func TestDetectorOutputShape(t *testing.T) {
	dets := DetectDocs(testbedDoc(t, "cmu"), testbedDoc(t, "eth"))
	for i := 1; i < len(dets); i++ {
		if dets[i-1].Case > dets[i].Case {
			t.Errorf("detections not sorted: %v", dets)
		}
	}
}

// Two structurally identical sources (same style family) exhibit few or no
// heterogeneities beyond incidental nulls — the detector must not see
// phantom language or clock mismatches.
func TestDetectorQuietOnHomogeneousPair(t *testing.T) {
	dets := DetectDocs(testbedDoc(t, "wisconsin"), testbedDoc(t, "utexas"))
	for _, d := range dets {
		switch d.Case {
		case hetero.Synonyms, hetero.LanguageExpression, hetero.SimpleMapping,
			hetero.ComplexMappings, hetero.UnionTypes:
			t.Errorf("phantom detection on homogeneous pair: %v (%s)", d.Case, d.Evidence)
		}
	}
}

// The German pair (same language, same conventions) must not trigger the
// language case against itself.
func TestDetectorGermanPairNoLanguageCase(t *testing.T) {
	dets := DetectDocs(testbedDoc(t, "tum"), testbedDoc(t, "karlsruhe"))
	for _, d := range dets {
		if d.Case == hetero.LanguageExpression {
			t.Errorf("tum vs karlsruhe should not exhibit case 5: %s", d.Evidence)
		}
	}
}

// Every rule fires only on a difference, so a document checked against an
// independently built copy of itself reports nothing: each testbed catalog
// against its re-parsed serialization, and each generated reference and
// challenge document against a second rendering.
func TestDetectSelfPairQuiet(t *testing.T) {
	for _, src := range catalog.All() {
		doc := testbedDoc(t, src.Name)
		again, err := xmldom.ParseString(doc.Encode())
		if err != nil {
			t.Fatalf("%s: %v", src.Name, err)
		}
		if dets := DetectDocs(doc, again); len(dets) != 0 {
			t.Errorf("%s against itself: %v", src.Name, dets)
		}
	}
	for _, cse := range hetero.AllCases() {
		sc, err := scenario.New(scenario.Params{Sources: 1, Seed: 7, Mix: scenario.Mix{cse: 1}, Size: 6})
		if err != nil {
			t.Fatal(err)
		}
		if dets := DetectDocs(sc.ReferenceDocument(0), sc.ReferenceDocument(0)); len(dets) != 0 {
			t.Errorf("%v reference against itself: %v", cse, dets)
		}
		if dets := DetectDocs(sc.ChallengeDocument(0), sc.ChallengeDocument(0)); len(dets) != 0 {
			t.Errorf("%v challenge against itself: %v", cse, dets)
		}
	}
}

// A generated minimal-difference pair exhibits exactly its planted class,
// over every class at several seeds and at the smallest and a large
// document size: 12 classes x 5 seeds x 2 sizes x 3 sources, 360 pairs.
func TestDetectorExactOnGeneratedPairs(t *testing.T) {
	for _, size := range []int{2, 24} {
		for seed := int64(1); seed <= 5; seed++ {
			for _, cse := range hetero.AllCases() {
				sc, err := scenario.New(scenario.Params{Sources: 3, Seed: seed, Mix: scenario.Mix{cse: 1}, Size: size})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < sc.Sources(); i++ {
					dets := DetectDocs(sc.ReferenceDocument(i), sc.ChallengeDocument(i))
					if len(dets) != 1 || dets[0].Case != cse {
						t.Errorf("size %d seed %d source %d: DetectDocs = %v, want exactly [%v]",
							size, seed, i, dets, cse)
					}
				}
			}
		}
	}
}
