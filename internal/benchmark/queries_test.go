package benchmark

import (
	"testing"

	"thalia/internal/xquery"
)

// TestQueriesParse guards the benchmark's ground truth: every runnable
// query text must parse, and a deliberately broken query must come back as
// a *ParseError with a real line/column position — not a panic.
func TestQueriesParse(t *testing.T) {
	for _, q := range Queries() {
		if _, err := xquery.Parse(q.XQuery); err != nil {
			t.Errorf("query %d does not parse: %v", q.ID, err)
		}
	}
	_, err := xquery.Parse("FOR $b in doc(\"x\")/r/c\nWHERE $b/T = !! RETURN $b")
	pe, ok := err.(*xquery.ParseError)
	if !ok {
		t.Fatalf("bad query error = %T (%v), want *xquery.ParseError", err, err)
	}
	if pe.Line != 2 || pe.Column == 0 {
		t.Errorf("ParseError position = %d:%d, want line 2", pe.Line, pe.Column)
	}
}
