package scenario

import (
	"testing"

	"thalia/internal/integration"
	"thalia/internal/xmldom"
)

// FuzzScenarioGen is the generator's differential fuzzer: for arbitrary
// (seed, sources, mix grammar, size) inputs, parameter validation must
// decide cleanly (error or scenario, never a panic), and for every valid
// scenario a sampled source must render parseable XML, evaluate its
// reference query to exactly the computed truth where checkable, and be
// answered with exactly the computed truth by the mediator. Generation is
// pure, so any corpus entry that ever fails reproduces forever.
func FuzzScenarioGen(f *testing.F) {
	f.Add(int64(1), uint16(35), "uniform", uint16(4))
	f.Add(int64(42), uint16(3), "synonyms:2,nulls,7:3", uint16(2))
	f.Add(int64(-9), uint16(500), "language", uint16(3))
	f.Add(int64(0), uint16(1), "composition:1000000", uint16(500))
	f.Add(int64(7), uint16(12), "1,2,3,4,5,6,7,8,9,10,11,12", uint16(0))
	f.Add(int64(99), uint16(8), "semantic,structure,sets", uint16(9))
	f.Fuzz(func(t *testing.T, seed int64, sources uint16, mixStr string, size uint16) {
		mix, err := ParseMix(mixStr)
		if err != nil {
			return // invalid grammar is a clean rejection, not a bug
		}
		sc, err := New(Params{Sources: int(sources), Seed: seed, Mix: mix, Size: int(size)})
		if err != nil {
			return
		}
		// Sample one source pseudo-derived from the inputs; purity means
		// one source checks as much as all of them over enough executions.
		i := int((uint64(seed) + uint64(size)) % uint64(sc.Sources()))

		doc, err := xmldom.ParseString(sc.ChallengeXML(i))
		if err != nil {
			t.Fatalf("source %d: challenge XML does not parse: %v", i, err)
		}
		if doc.Root == nil || doc.Root.Name != "catalog" {
			t.Fatalf("source %d: bad root", i)
		}

		truth := sc.Truth(i)
		if len(truth) == 0 {
			t.Fatalf("source %d (case %v): no planted answer row", i, sc.Case(i))
		}
		refRows, checkable, err := sc.RefRows(i)
		if err != nil {
			t.Fatalf("source %d: RefRows: %v", i, err)
		}
		if checkable {
			if missing, extra := integration.MatchRows(truth, refRows); len(missing) > 0 || len(extra) > 0 {
				t.Fatalf("source %d: plan engine disagrees with truth\nmissing %v\nextra %v", i, missing, extra)
			}
		}
		ans, err := sc.NewMediator().Answer(integration.Request{QueryID: i + 1, Challenge: sc.Name(i)})
		if err != nil {
			t.Fatalf("source %d: mediator: %v", i, err)
		}
		if missing, extra := integration.MatchRows(truth, ans.Rows); len(missing) > 0 || len(extra) > 0 {
			t.Fatalf("source %d: mediator disagrees with truth\nmissing %v\nextra %v", i, missing, extra)
		}
	})
}

// FuzzParseMix holds the --mix grammar to its contract on arbitrary input:
// ParseMix never panics, every weight it accepts is in [0, maxWeight], an
// accepted mix renders (String) to text that parses back to the same mix,
// and New accepts it.
func FuzzParseMix(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMix(s)
		if err != nil {
			return
		}
		for c, w := range m {
			if w < 0 || w > maxWeight {
				t.Fatalf("ParseMix(%q): weight %d for %v out of range [0,%d]", s, w, c, maxWeight)
			}
		}
		again, err := ParseMix(m.String())
		if err != nil {
			t.Fatalf("ParseMix(%q) = %q, which does not parse: %v", s, m.String(), err)
		}
		if again.String() != m.String() {
			t.Fatalf("ParseMix(%q) = %q, round-trips to %q", s, m.String(), again.String())
		}
		if _, err := New(Params{Sources: 1, Mix: m}); err != nil {
			t.Fatalf("ParseMix(%q) = %q, which New rejects: %v", s, m.String(), err)
		}
	})
}
