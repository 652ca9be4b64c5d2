package cohera

import (
	"errors"
	"testing"

	"thalia/internal/integration"
)

func TestIdentity(t *testing.T) {
	s := New()
	if s.Name() != "Cohera" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.Description() == "" {
		t.Error("empty description")
	}
}

func TestShreddedRelations(t *testing.T) {
	s := New()
	db, err := s.DB()
	if err != nil {
		t.Fatal(err)
	}
	// Base relations for every federated source plus the wrapper-derived
	// child relations.
	for _, name := range []string{"gatech", "cmu", "cmu_lecturers", "umd", "umd_sections",
		"brown", "toronto", "umich", "ucsd", "umass"} {
		res, err := db.Query("SELECT * FROM " + name)
		if err != nil {
			t.Errorf("missing relation %s: %v", name, err)
			continue
		}
		if len(res.Rows) == 0 {
			t.Errorf("relation %s is empty", name)
		}
	}
	// The set-valued Lecturer field was flattened: Song/Wing became two rows.
	res, err := db.Query(`SELECT name FROM cmu_lecturers WHERE num = '15-712' ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].String() != "Song" || res.Rows[1][0].String() != "Wing" {
		t.Errorf("lecturer flattening: %v", res.Rows)
	}
	// The wrapper hoisted Maryland's rooms out of the Time strings.
	res, err = db.Query(`SELECT room FROM umd_sections WHERE num = 'CMSC435' ORDER BY room`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].String() != "EGR2154" {
		t.Errorf("room hoisting: %v", res.Rows)
	}
	// Postgres-style NULL for the missing textbook.
	res, err = db.Query(`SELECT num FROM cmu WHERE textbook IS NULL`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Rows {
		if r[0].String() == "15-817" {
			found = true
		}
	}
	if !found {
		t.Error("15-817 should have NULL textbook")
	}
}

func TestMappingViews(t *testing.T) {
	s := New()
	db, err := s.DB()
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT instructor FROM g_gatech_courses WHERE course = 'CS4251'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "Mark" {
		t.Errorf("view row: %v", res.Rows)
	}
}

func TestDeclinesHardQueries(t *testing.T) {
	s := New()
	for _, id := range []int{4, 5, 8} {
		_, err := s.Answer(integration.Request{QueryID: id})
		if !errors.Is(err, integration.ErrUnsupported) {
			t.Errorf("query %d: err = %v, want ErrUnsupported", id, err)
		}
	}
	if _, err := s.Answer(integration.Request{QueryID: 99}); err == nil {
		t.Error("expected error for unknown query")
	}
}

func TestNoCodeQueriesUseNoFunctions(t *testing.T) {
	s := New()
	for _, id := range []int{1, 6, 9, 10} {
		ans, err := s.Answer(integration.Request{QueryID: id})
		if err != nil {
			t.Fatalf("query %d: %v", id, err)
		}
		if ans.Effort != integration.EffortNone || len(ans.Functions) != 0 {
			t.Errorf("query %d should be pure mapping; effort=%v functions=%v", id, ans.Effort, ans.Functions)
		}
	}
}

func TestUDFQueriesChargeComplexity(t *testing.T) {
	s := New()
	want := map[int]int{2: 1, 3: 2, 7: 2, 11: 2, 12: 2}
	for id, cx := range want {
		ans, err := s.Answer(integration.Request{QueryID: id})
		if err != nil {
			t.Fatalf("query %d: %v", id, err)
		}
		total := 0
		for _, f := range ans.Functions {
			total += f.Complexity
		}
		if total != cx {
			t.Errorf("query %d complexity = %d, want %d", id, total, cx)
		}
	}
}

func TestQuery6ReportsMissingTextbook(t *testing.T) {
	s := New()
	ans, err := s.Answer(integration.Request{QueryID: 6})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range ans.Rows {
		if r["source"] == "cmu" && r["course"] == "15-817" {
			found = true
			if r["textbook"] != "" {
				t.Errorf("missing textbook should be empty marker, got %q", r["textbook"])
			}
		}
	}
	if !found {
		t.Error("the CMU course with no textbook must appear in the result")
	}
}
