package rewrite

import (
	"testing"

	"thalia/internal/integration"
)

func TestMediatorBasicQuery(t *testing.T) {
	m := NewMediator()
	rows, _, err := m.Answer(GlobalQuery{
		Sources: []string{"gatech"},
		Select:  []string{"course", "instructor"},
		Where:   []Predicate{{Field: "instructor", Op: OpEq, Value: "Mark"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["course"] != "CS4251" || rows[0]["instructor"] != "Mark" {
		t.Errorf("rows = %v", rows)
	}
}

func TestMultiValuedExpansion(t *testing.T) {
	m := NewMediator()
	rows, _, err := m.Answer(GlobalQuery{
		Sources: []string{"cmu"},
		Select:  []string{"course", "instructor"},
		Where:   []Predicate{{Field: "course", Op: OpEq, Value: "15-712"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Song/Wing expands to two rows.
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	got := map[string]bool{}
	for _, r := range rows {
		got[r["instructor"]] = true
	}
	if !got["Song"] || !got["Wing"] {
		t.Errorf("instructors: %v", got)
	}
}

func TestSelectedFieldFilteredByOwnPredicate(t *testing.T) {
	m := NewMediator()
	// Only the matching value of a multi-valued selected field is emitted.
	rows, _, err := m.Answer(GlobalQuery{
		Sources: []string{"cmu"},
		Select:  []string{"course", "instructor"},
		Where:   []Predicate{{Field: "instructor", Op: OpEq, Value: "Wing"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["instructor"] != "Wing" {
		t.Errorf("rows = %v", rows)
	}
}

func TestInapplicableFieldSemantics(t *testing.T) {
	m := NewMediator()
	rows, used, err := m.Answer(GlobalQuery{
		Sources: []string{"eth"},
		Select:  []string{"course", "restriction"},
		Where: []Predicate{
			{Field: "title", Op: OpContainsTranslated, Value: "database"},
			{Field: "restriction", Op: OpOpenTo, Value: "JR"},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("inapplicable predicate should be vacuous, not filtering")
	}
	for _, r := range rows {
		if r["restriction"] != "(not applicable)" {
			t.Errorf("restriction = %q", r["restriction"])
		}
	}
	if used["dual-null"] != 3 {
		t.Errorf("dual-null not charged: %v", used)
	}
}

func TestMissingAsEmpty(t *testing.T) {
	m := NewMediator()
	rows, _, err := m.Answer(GlobalQuery{
		Sources: []string{"toronto"},
		Select:  []string{"course", "textbook"},
		Where:   []Predicate{{Field: "title", Op: OpContains, Value: "Formal Methods"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["textbook"] != "" {
		t.Errorf("rows = %v", rows)
	}
}

func TestLedgerOnlyChargesNeededFields(t *testing.T) {
	m := NewMediator()
	// A query not touching eth units must not run the Umfang transform.
	_, used, err := m.Answer(GlobalQuery{
		Sources: []string{"eth"},
		Select:  []string{"course"},
		Where:   []Predicate{{Field: "instructor", Op: OpEq, Value: "Gross"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(used) != 0 {
		t.Errorf("unneeded transforms charged: %v", used)
	}
}

func TestErrors(t *testing.T) {
	m := NewMediator()
	if _, _, err := m.Answer(GlobalQuery{Sources: []string{"ghost"}}, nil); err == nil {
		t.Error("unknown source should error")
	}
	if _, _, err := m.Answer(GlobalQuery{
		Sources: []string{"cmu"},
		Where:   []Predicate{{Field: "title", Op: "bogus", Value: "x"}},
	}, nil); err == nil {
		t.Error("unknown operator should error")
	}
}

func TestSystemAnswersAllQueriesViaTables(t *testing.T) {
	sys := NewSystem()
	for id := 1; id <= 12; id++ {
		ans, err := sys.Answer(integration.Request{QueryID: id})
		if err != nil {
			t.Errorf("query %d: %v", id, err)
			continue
		}
		if len(ans.Rows) == 0 {
			t.Errorf("query %d: no rows", id)
		}
	}
	if _, err := sys.Answer(integration.Request{QueryID: 0}); err == nil {
		t.Error("unknown query should error")
	}
}

func TestSystemEffortLevels(t *testing.T) {
	sys := NewSystem()
	// Query 1 uses only split-slash → small; query 4 needs the lexicon and
	// Umfang semantics → large.
	a1, err := sys.Answer(integration.Request{QueryID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Effort != integration.EffortSmall {
		t.Errorf("q1 effort = %v", a1.Effort)
	}
	a4, err := sys.Answer(integration.Request{QueryID: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a4.Effort != integration.EffortLarge {
		t.Errorf("q4 effort = %v", a4.Effort)
	}
}
