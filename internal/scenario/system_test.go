package scenario

import (
	"fmt"
	"regexp"
	"testing"

	"thalia/internal/hetero"
	"thalia/internal/xmldom"
	"thalia/internal/xquery"
	"thalia/internal/xquery/plan"
)

// TestFamilyPlansMatchSpelledQueries checks the plan each family compiles
// once, evaluated with a source's $uri and $p bound as the mediator binds
// them, against the source's spelled challenge query compiled on its own.
// On the same challenge document both must return the same elements, as
// the same pointers in the same order, and never none: every source's
// planted course answers its query. The seeds run in parallel, so under
// -race several goroutines share each family plan as a worker pool does.
func TestFamilyPlansMatchSpelledQueries(t *testing.T) {
	for _, seed := range []int64{4, 23, 1009} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			sc, err := New(Params{Sources: 600, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < sc.Sources(); i++ {
				spec, doc := sc.Spec(i), sc.ChallengeDocument(i)
				p, err := plan.CompileQuery(spec.ChallengeXQuery)
				if err != nil {
					t.Fatalf("%s: %v", spec.Source, err)
				}
				want, err := p.Eval(xquery.NewContext(func(u string) (*xmldom.Document, error) {
					if u != spec.Source+".xml" {
						return nil, fmt.Errorf("no document %q", u)
					}
					return doc, nil
				}))
				if err != nil {
					t.Fatalf("%s: spelled query: %v", spec.Source, err)
				}
				got, err := spec.challengeElements(doc)
				if err != nil {
					t.Fatalf("%s: family plan: %v", spec.Source, err)
				}
				if len(want) == 0 {
					t.Fatalf("%s (case %d): the spelled query returns nothing:\n%s", spec.Source, int(spec.Case), spec.ChallengeXQuery)
				}
				if len(got) != len(want) {
					t.Fatalf("%s (case %d): family plan returns %d elements, spelled query %d:\n%s",
						spec.Source, int(spec.Case), len(got), len(want), spec.ChallengeXQuery)
				}
				for k, el := range got {
					if xquery.Item(el) != want[k] {
						t.Fatalf("%s (case %d): element %d differs", spec.Source, int(spec.Case), k)
					}
				}
			}
		})
	}
}

// TestSemesterColumnMatchesTermRE pins semesterColumn to the regular
// expression it replaced: the same verdict and the same semester for every
// child element name of generated case-11 courses, and for near misses.
func TestSemesterColumnMatchesTermRE(t *testing.T) {
	termRE := regexp.MustCompile(`^(Fall|Winter|Spring|Summer)(\d{4})$`)
	names := []string{"Fall20031", "Fall203", "fall2003", "Fall２００３", "Autumn2003", "Fall 2003", "", "Summer2005", "Fall"}
	sc, err := New(Params{Sources: 24, Seed: 13, Mix: Mix{hetero.AttributeNameDoesNotDefineSemantics: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sc.Sources(); i++ {
		for _, course := range sc.ChallengeDocument(i).Root.ChildElements() {
			for _, ch := range course.ChildElements() {
				names = append(names, ch.Name)
			}
		}
	}
	generated := map[string]bool{}
	for _, name := range names {
		want, wantOK := "", false
		if m := termRE.FindStringSubmatch(name); m != nil {
			want, wantOK = m[1]+" "+m[2], true
		}
		got, ok := semesterColumn(name)
		if got != want || ok != wantOK {
			t.Errorf("semesterColumn(%q) = %q, %v; the expression reads %q, %v", name, got, ok, want, wantOK)
		}
		if ok {
			generated[got] = true
		}
	}
	for _, s := range semesters {
		if !generated[s] {
			t.Errorf("no generated column names semester %q", s)
		}
	}
}
