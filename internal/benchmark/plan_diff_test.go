package benchmark

import (
	"fmt"
	"strings"
	"testing"

	"thalia/internal/catalog"
	"thalia/internal/integration"
	"thalia/internal/xmldom"
	"thalia/internal/xquery"
	"thalia/internal/xquery/plan"
)

// planSeq renders an XQuery result sequence with explicit item types, one
// line per item, so interpreter and plan results can be compared (and
// diffed) byte for byte.
func planSeq(s xquery.Sequence) []string {
	lines := make([]string, len(s))
	for i, item := range s {
		switch v := item.(type) {
		case *xmldom.Document:
			lines[i] = "document " + v.Root.String()
		case *xmldom.Element:
			lines[i] = "element " + v.String()
		case xquery.AttrRef:
			lines[i] = fmt.Sprintf("attribute %s=%q", v.Name, v.Value)
		case string:
			lines[i] = fmt.Sprintf("string %q", v)
		case float64:
			lines[i] = fmt.Sprintf("number %v", v)
		case bool:
			lines[i] = fmt.Sprintf("boolean %v", v)
		default:
			lines[i] = fmt.Sprintf("%T %v", v, v)
		}
	}
	return lines
}

// seqDiff reports the line-level difference between two rendered sequences
// through the same rowDiff helper the cross-system suite uses.
func seqDiff(want, got []string) string {
	toRows := func(lines []string) []integration.Row {
		rows := make([]integration.Row, len(lines))
		for i, l := range lines {
			rows[i] = integration.Row{"pos": fmt.Sprint(i), "item": l}
		}
		return rows
	}
	missing, extra := integration.MatchRows(toRows(want), toRows(got))
	return rowDiff(missing, extra)
}

// retarget rewrites a benchmark query to run against another catalog:
// doc("<ref>.xml")/<ref>/… becomes doc("<cat>.xml")/<cat>/….
func retarget(q *Query, cat string) string {
	src := strings.ReplaceAll(q.XQuery, `doc("`+q.Reference+`.xml")`, `doc("`+cat+`.xml")`)
	return strings.ReplaceAll(src, "/"+q.Reference+"/", "/"+cat+"/")
}

// TestPlanInterpreterEquivalenceAcrossCatalogs is the tentpole's
// differential conformance suite: all twelve benchmark queries, retargeted
// at every extracted catalog, must produce identical outcomes from the
// reference interpreter and the compiled plan — same error or byte-identical
// rendered sequence. Most retargeted cells return empty sequences (the
// catalogs are heterogeneous by design); the test asserts enough non-empty
// cells that the equivalence claim is not vacuous.
func TestPlanInterpreterEquivalenceAcrossCatalogs(t *testing.T) {
	sources := catalog.All()
	if len(sources) < 25 {
		t.Fatalf("only %d catalogs registered; the suite expects the full testbed", len(sources))
	}
	queries := Queries()
	nonEmpty := 0
	for _, q := range queries {
		for _, s := range sources {
			cat := s.Name
			src := retarget(q, cat)
			label := fmt.Sprintf("q%02d/%s", q.ID, cat)
			expr, err := xquery.Parse(src)
			if err != nil {
				t.Fatalf("%s: parse: %v", label, err)
			}
			p, err := plan.Compile(expr)
			if err != nil {
				t.Fatalf("%s: compile: %v", label, err)
			}
			ictx := xquery.NewContext(catalog.Resolver())
			pctx := xquery.NewContext(catalog.Resolver())
			want, werr := xquery.Eval(expr, ictx)
			got, gerr := p.Eval(pctx)
			if (werr == nil) != (gerr == nil) {
				t.Errorf("%s: error divergence:\ninterpreter: %v\nplan:        %v", label, werr, gerr)
				continue
			}
			if werr != nil {
				if werr.Error() != gerr.Error() {
					t.Errorf("%s: error message divergence:\ninterpreter: %v\nplan:        %v", label, werr, gerr)
				}
				continue
			}
			w, g := planSeq(want), planSeq(got)
			if strings.Join(w, "\n") != strings.Join(g, "\n") {
				t.Errorf("%s: result divergence:\n%s", label, seqDiff(w, g))
			}
			if len(want) > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty < len(queries) {
		t.Errorf("only %d of %d cells returned rows — the differential suite is near-vacuous",
			nonEmpty, len(queries)*len(sources))
	}
}
