package rewrite

import (
	"fmt"
	"sort"

	"thalia/internal/explain"
	"thalia/internal/integration"
)

// System adapts the declarative mediator to the benchmark's System
// interface: every benchmark query is expressed as a GlobalQuery over the
// global schema — no per-query code at all — and the effort accounting
// comes from the mediator's transform ledger. Answer is safe for
// concurrent use: each Mediator.Answer call carries its own usage ledger,
// so parallel benchmark cells never interleave effort accounting.
type System struct {
	med *Mediator
}

// NewSystem returns the declarative-mediation system.
func NewSystem() *System { return &System{med: NewMediator()} }

// Name implements integration.System.
func (s *System) Name() string { return "Declarative Mediator" }

// Description implements integration.System.
func (s *System) Description() string {
	return "generic rewrite mediator: benchmark queries expressed as global conjunctive queries over per-source mapping tables"
}

// GlobalQueries returns the global form of every benchmark query, keyed by
// query ID — the "challenge variant" of each query, stated over the global
// schema instead of a reference source. Exported so static analysis can
// verify every referenced field is mapped (or declared inapplicable) for
// every source the query touches.
func GlobalQueries() map[int]GlobalQuery { return benchmarkQueries() }

// benchmarkQueries maps each benchmark query id to its global form.
func benchmarkQueries() map[int]GlobalQuery {
	return map[int]GlobalQuery{
		1: {
			Sources: []string{"gatech", "cmu"},
			Select:  []string{"course", "instructor"},
			Where:   []Predicate{{Field: "instructor", Op: OpEq, Value: "Mark"}},
		},
		2: {
			Sources: []string{"cmu", "umass"},
			Select:  []string{"course", "title", "time"},
			Where: []Predicate{
				{Field: "time", Op: OpStartsWith, Value: "13:30"},
				{Field: "title", Op: OpContainsFold, Value: "database"},
			},
		},
		3: {
			Sources: []string{"umd", "brown"},
			Select:  []string{"course", "title"},
			Where:   []Predicate{{Field: "title", Op: OpContains, Value: "Data Structures"}},
		},
		4: {
			Sources: []string{"cmu", "eth"},
			Select:  []string{"course", "title", "units"},
			Where: []Predicate{
				{Field: "units", Op: OpGt, Value: "10"},
				{Field: "title", Op: OpContainsTranslated, Value: "database"},
			},
		},
		5: {
			Sources: []string{"umd", "eth"},
			Select:  []string{"course", "title"},
			Where:   []Predicate{{Field: "title", Op: OpContainsTranslated, Value: "database"}},
		},
		6: {
			Sources: []string{"toronto", "cmu"},
			Select:  []string{"course", "textbook"},
			Where:   []Predicate{{Field: "title", Op: OpContains, Value: "Verification"}},
		},
		7: {
			Sources: []string{"umich", "cmu"},
			Select:  []string{"course", "title"},
			Where: []Predicate{
				{Field: "prerequisite", Op: OpEq, Value: "None"},
				{Field: "title", Op: OpContains, Value: "Database"},
			},
		},
		8: {
			Sources: []string{"gatech", "eth"},
			Select:  []string{"course", "title", "restriction"},
			Where: []Predicate{
				{Field: "title", Op: OpContainsTranslated, Value: "database"},
				{Field: "restriction", Op: OpOpenTo, Value: "JR"},
			},
		},
		9: {
			Sources: []string{"brown", "umd"},
			Select:  []string{"course", "room"},
			Where:   []Predicate{{Field: "title", Op: OpContains, Value: "Software Engineering"}},
		},
		10: {
			Sources: []string{"cmu", "umd"},
			Select:  []string{"course", "instructor"},
			Where:   []Predicate{{Field: "title", Op: OpContains, Value: "Software"}},
		},
		11: {
			Sources: []string{"cmu", "ucsd"},
			Select:  []string{"course", "instructor"},
			Where:   []Predicate{{Field: "title", Op: OpContains, Value: "Database"}},
		},
		12: {
			Sources: []string{"cmu", "brown"},
			Select:  []string{"course", "title", "day", "time"},
			Where:   []Predicate{{Field: "title", Op: OpContains, Value: "Computer Networks"}},
		},
	}
}

// Answer implements integration.System: it rewrites the benchmark query to
// its global form and mediates it.
func (s *System) Answer(req integration.Request) (*integration.Answer, error) {
	gq, ok := benchmarkQueries()[req.QueryID]
	if !ok {
		return nil, fmt.Errorf("rewrite: unknown benchmark query %d", req.QueryID)
	}
	rec := explain.FromContext(req.Context())
	var sp *explain.Span
	if rec != nil {
		sp = rec.Begin(explain.KindAnswer, "DeclarativeMediator.Answer")
		defer sp.End()
	}
	rows, used, err := s.med.Answer(gq, rec)
	if err != nil {
		return nil, err
	}
	sp.SetRows(-1, len(rows))
	out := make([]integration.Row, len(rows))
	for i, r := range rows {
		out[i] = integration.Row(r)
	}
	names := make([]string, 0, len(used))
	for n := range used {
		names = append(names, n)
	}
	sort.Strings(names)
	ans := &integration.Answer{Rows: out}
	maxCx := 0
	for _, n := range names {
		ans.Functions = append(ans.Functions, integration.FunctionUse{Name: n, Complexity: used[n]})
		if used[n] > maxCx {
			maxCx = used[n]
		}
	}
	switch maxCx {
	case 0:
		ans.Effort = integration.EffortNone
	case 1:
		ans.Effort = integration.EffortSmall
	case 2:
		ans.Effort = integration.EffortModerate
	default:
		ans.Effort = integration.EffortLarge
	}
	return ans, nil
}
