package benchmark

import (
	"strings"
	"testing"

	"thalia/internal/hetero"
	"thalia/internal/integration"
	"thalia/internal/ufmw"
)

func TestTwelveQueries(t *testing.T) {
	qs := Queries()
	if len(qs) != 12 {
		t.Fatalf("got %d queries, want 12", len(qs))
	}
	for i, q := range qs {
		if q.ID != i+1 {
			t.Errorf("query %d has ID %d", i, q.ID)
		}
		if int(q.Case) != q.ID {
			t.Errorf("query %d exercises %v", q.ID, q.Case)
		}
		if q.XQuery == "" || q.PaperXQuery == "" || q.Reference == "" || q.ChallengeSource == "" {
			t.Errorf("query %d underspecified", q.ID)
		}
		if len(q.Fields) < 2 || q.Fields[0] != "source" {
			t.Errorf("query %d fields %v", q.ID, q.Fields)
		}
	}
	if _, err := QueryByID(13); err == nil {
		t.Error("expected error for query 13")
	}
	q5, err := QueryByID(5)
	if err != nil || q5.Case != hetero.LanguageExpression {
		t.Errorf("QueryByID(5) = %v, %v", q5, err)
	}
}

func TestExpectedAnswersNonEmpty(t *testing.T) {
	for _, q := range Queries() {
		rows, err := q.Expected()
		if err != nil {
			t.Fatalf("query %d: %v", q.ID, err)
		}
		if len(rows) == 0 {
			t.Errorf("query %d has an empty expected answer — the benchmark would be vacuous", q.ID)
		}
		// Every expected row speaks the query's field vocabulary.
		allowed := map[string]bool{}
		for _, f := range q.Fields {
			allowed[f] = true
		}
		for _, r := range rows {
			if r["source"] != q.Reference && r["source"] != q.ChallengeSource {
				t.Errorf("query %d: row from unexpected source %q", q.ID, r["source"])
			}
			for f := range r {
				if !allowed[f] {
					t.Errorf("query %d: row field %q not in vocabulary %v", q.ID, f, q.Fields)
				}
			}
		}
	}
}

// Both sides of every query must contribute to the expected answer —
// otherwise the challenge schema would not actually be tested.
func TestExpectedAnswersCoverBothSources(t *testing.T) {
	for _, q := range Queries() {
		rows, err := q.Expected()
		if err != nil {
			t.Fatal(err)
		}
		bySource := map[string]int{}
		for _, r := range rows {
			bySource[r["source"]]++
		}
		if bySource[q.Reference] == 0 {
			t.Errorf("query %d: no expected rows from reference %s", q.ID, q.Reference)
		}
		if bySource[q.ChallengeSource] == 0 {
			t.Errorf("query %d: no expected rows from challenge %s", q.ID, q.ChallengeSource)
		}
	}
}

// The paper's key sample answers must be present in the expected rows.
func TestExpectedAnswerSpotChecks(t *testing.T) {
	find := func(id int, match integration.Row) bool {
		q, err := QueryByID(id)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := q.Expected()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			ok := true
			for k, v := range match {
				if r[k] != v {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		t.Logf("query %d rows: %v", id, rows)
		return false
	}
	checks := []struct {
		id    int
		match integration.Row
	}{
		{1, integration.Row{"source": "gatech", "instructor": "Mark"}},
		{1, integration.Row{"source": "cmu", "course": "15-567"}},
		{2, integration.Row{"source": "cmu", "course": "15-415", "time": "13:30-14:50"}},
		{3, integration.Row{"source": "umd", "course": "CMSC420"}},
		{3, integration.Row{"source": "brown", "course": "CS016"}},
		{4, integration.Row{"source": "cmu", "course": "15-415", "units": "12"}},
		{4, integration.Row{"source": "eth", "course": "251-0317", "units": "12"}},
		{5, integration.Row{"source": "eth", "title": "XML und Datenbanken"}},
		{6, integration.Row{"source": "toronto", "textbook": "'Model Checking', by Clarke, Grumberg, Peled, 1999, MIT Press."}},
		{6, integration.Row{"source": "cmu", "course": "15-817", "textbook": ""}},
		{7, integration.Row{"source": "umich", "course": "EECS484"}},
		{7, integration.Row{"source": "cmu", "course": "15-415"}},
		{8, integration.Row{"source": "gatech", "course": "CS4400", "restriction": "JR or SR"}},
		{8, integration.Row{"source": "eth", "restriction": "(not applicable)"}},
		{9, integration.Row{"source": "brown", "room": "CIT 165, Labs in Sunlab"}},
		{9, integration.Row{"source": "umd", "course": "CMSC435", "room": "KEY0106"}},
		{10, integration.Row{"source": "cmu", "course": "15-712", "instructor": "Song"}},
		{10, integration.Row{"source": "cmu", "course": "15-712", "instructor": "Wing"}},
		{10, integration.Row{"source": "umd", "instructor": "Memon, A."}},
		{11, integration.Row{"source": "cmu", "instructor": "Ailamaki"}},
		{11, integration.Row{"source": "ucsd", "course": "CSE232", "instructor": "Yannis"}},
		{11, integration.Row{"source": "ucsd", "course": "CSE232", "instructor": "Deutsch"}},
		{12, integration.Row{"source": "cmu", "course": "15-744", "day": "F"}},
		{12, integration.Row{"source": "brown", "course": "CS168", "day": "M", "time": "15:00-17:30"}},
	}
	for _, c := range checks {
		if !find(c.id, c.match) {
			t.Errorf("query %d: expected answer missing row matching %v", c.id, c.match)
		}
	}
}

// The full mediator is the existence proof that every expected answer is
// reachable from the extracted XML: it must score 12/12.
func TestFullMediatorScoresPerfect(t *testing.T) {
	card, err := NewRunner().Evaluate(ufmw.New())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range card.Results {
		if !r.Correct {
			t.Errorf("query %d incorrect: err=%q missing=%v extra=%v",
				r.QueryID, r.Err, r.Missing, r.Extra)
		}
	}
	if card.CorrectCount() != 12 {
		t.Errorf("full mediator scored %d/12", card.CorrectCount())
	}
	if card.ComplexityScore() == 0 {
		t.Error("full mediator should be charged for its external functions")
	}
}

func TestScoringFunction(t *testing.T) {
	r := QueryResult{Supported: true, Functions: []integration.FunctionUse{
		{Name: "a", Complexity: 1}, {Name: "b", Complexity: 3},
	}}
	if r.Complexity() != 4 {
		t.Errorf("complexity = %d", r.Complexity())
	}
	r2 := QueryResult{Supported: true, Effort: integration.EffortModerate}
	if r2.Complexity() != 2 {
		t.Errorf("effort fallback = %d", r2.Complexity())
	}
	r3 := QueryResult{Supported: false, Functions: r.Functions}
	if r3.Complexity() != 0 {
		t.Error("declined queries carry no complexity")
	}
}

func TestRanking(t *testing.T) {
	a := &Scorecard{System: "A", Results: []QueryResult{
		{QueryID: 1, Supported: true, Correct: true, Effort: integration.EffortModerate},
		{QueryID: 2, Supported: true, Correct: true, Effort: integration.EffortModerate},
	}}
	b := &Scorecard{System: "B", Results: []QueryResult{
		{QueryID: 1, Supported: true, Correct: true, Effort: integration.EffortNone},
		{QueryID: 2, Supported: true, Correct: true, Effort: integration.EffortSmall},
	}}
	c := &Scorecard{System: "C", Results: []QueryResult{
		{QueryID: 1, Supported: true, Correct: true, Effort: integration.EffortLarge},
	}}
	ranked := Rank([]*Scorecard{a, b, c})
	// B and A tie on correctness (2); B has lower complexity → more
	// sophisticated → ranks first. C has fewer correct → last.
	if ranked[0].System != "B" || ranked[1].System != "A" || ranked[2].System != "C" {
		t.Errorf("ranking: %s, %s, %s", ranked[0].System, ranked[1].System, ranked[2].System)
	}
}

func TestHonorRoll(t *testing.T) {
	h := &HonorRoll{}
	h.AddEntry(HonorRollEntry{System: "X", Group: "g1", Correct: 9, Complexity: 14})
	h.AddEntry(HonorRollEntry{System: "Y", Group: "g2", Correct: 9, Complexity: 9})
	h.AddEntry(HonorRollEntry{System: "Z", Group: "g3", Correct: 12, Complexity: 25})
	if h.Entries[0].System != "Z" || h.Entries[1].System != "Y" || h.Entries[2].System != "X" {
		t.Errorf("honor roll order: %+v", h.Entries)
	}
}

func TestScorecardFormat(t *testing.T) {
	card, err := NewRunner().Evaluate(ufmw.New())
	if err != nil {
		t.Fatal(err)
	}
	out := card.Format()
	for _, want := range []string{"UF Full Mediator", "Query  1", "Score: 12/12"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	if sum := Summary(card); !strings.Contains(sum, "12/12 correct") {
		t.Errorf("Summary: %s", sum)
	}
}
