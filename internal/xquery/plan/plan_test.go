package plan_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"thalia/internal/explain"
	"thalia/internal/xmldom"
	"thalia/internal/xquery"
	"thalia/internal/xquery/plan"
)

// testDoc is a small heterogeneous document exercising child, descendant
// and attribute axes, predicates, and mixed text.
const testDoc = `<catalog>
  <course id="c1" credits="3">
    <title>Database Systems</title>
    <instructor>Mark</instructor>
    <room>CSE 101</room>
  </course>
  <course id="c2" credits="4">
    <title>Operating Systems</title>
    <instructor>Helen</instructor>
    <nested><title>Lab</title></nested>
  </course>
  <course id="c3">
    <title>Datenbanken</title>
    <instructor>Jana</instructor>
  </course>
</catalog>`

func testResolver(t testing.TB) xquery.DocResolver {
	doc, err := xmldom.ParseString(testDoc)
	if err != nil {
		t.Fatalf("parse test doc: %v", err)
	}
	return func(uri string) (*xmldom.Document, error) {
		if uri == "a.xml" || uri == "a" {
			return doc, nil
		}
		return nil, fmt.Errorf("no such document %q", uri)
	}
}

// newTestContext builds a context with a resolver and globals (including a
// shadowed one) — the full runtime surface both engines must treat
// identically.
func newTestContext(t testing.TB) *xquery.Context {
	ctx := xquery.NewContext(testResolver(t))
	ctx.Bind("g", xquery.Sequence{"first"})
	ctx.Bind("g", xquery.Sequence{"second"}) // shadows the first binding
	ctx.Bind("n", xquery.Sequence{2.0})
	return ctx
}

// renderSequence serializes a result sequence with explicit item types, so
// "true" the string and true the boolean cannot be confused when comparing
// the two engines.
func renderSequence(s xquery.Sequence) string {
	var b strings.Builder
	for i, item := range s {
		fmt.Fprintf(&b, "[%d] ", i)
		switch v := item.(type) {
		case *xmldom.Document:
			b.WriteString("document " + v.Root.String())
		case *xmldom.Element:
			b.WriteString("element " + v.String())
		case xquery.AttrRef:
			fmt.Fprintf(&b, "attribute %s=%q", v.Name, v.Value)
		case string:
			fmt.Fprintf(&b, "string %q", v)
		case float64:
			fmt.Fprintf(&b, "number %v", v)
		case bool:
			fmt.Fprintf(&b, "boolean %v", v)
		default:
			fmt.Fprintf(&b, "%T %v", v, v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// equivalenceQueries covers every AST node kind (the plancoverage analyzer
// checks this file mentions each kind's exercising query) and the runtime
// semantics both engines share.
var equivalenceQueries = []string{
	// PathExpr + FLWOR + StringLit + Binary comparison.
	`FOR $c in doc("a.xml")/catalog/course WHERE $c/instructor = "Mark" RETURN $c/title`,
	// Descendant axis from the document, which includes the root element.
	`FOR $t in doc("a.xml")//title RETURN $t`,
	`FOR $t in doc("a.xml")//nested/title RETURN $t`,
	`count(doc("a.xml")//catalog)`,
	`count(doc("a.xml")//*)`,
	// AxisAttribute + VarRef + predicates.
	`FOR $c in doc("a.xml")/catalog/course WHERE $c/@credits >= 4 RETURN $c/@id`,
	`FOR $c in doc("a.xml")/catalog/course[2] RETURN $c/title`,
	`FOR $c in doc("a.xml")/catalog/course[instructor = "Jana"] RETURN $c/title`,
	// NumberLit + Unary + arithmetic Binary.
	`FOR $c in doc("a.xml")/catalog/course WHERE $c/@credits + 1 > 4 RETURN $c/@id`,
	`(-3) + 10 * 2`,
	`7 div 2`,
	`7 mod 2`,
	// SeqExpr.
	`(1, "two", doc("a.xml")//title)`,
	// Call: builtins (pre-resolved), and a non-builtin name, which fails
	// only after its arguments were evaluated.
	`FOR $c in doc("a.xml")/catalog/course WHERE contains($c/title, "Data") RETURN upper-case($c/instructor)`,
	`count(doc("a.xml")//course)`,
	`string-join(doc("a.xml")//instructor, "; ")`,
	`tag("a", 1)`,
	`tag(1 div 0)`,
	// ElemCtor with attributes, literal text, nested ctor, and computed
	// content.
	`FOR $c in doc("a.xml")/catalog/course
	 RETURN <row id="{$c/@id}">title: {$c/title} <inner>{$c/instructor}</inner></row>`,
	// Quantified, both flavors.
	`some $t in doc("a.xml")//title satisfies contains($t, "Lab")`,
	`every $t in doc("a.xml")//title satisfies $t != ""`,
	// IfExpr.
	`if (doc("a.xml")//course[3]) then "three" else "fewer"`,
	// FLWOR order by, both directions, and let bindings.
	`FOR $c in doc("a.xml")/catalog/course ORDER BY $c/title RETURN $c/title`,
	`FOR $c in doc("a.xml")/catalog/course ORDER BY $c/title DESCENDING RETURN $c/title`,
	`FOR $c in doc("a.xml")/catalog/course LET $t := $c/title WHERE $t != "" RETURN concat($t, "!")`,
	// Globals, including the shadowed one, and error cases.
	`concat($g, "/", $n)`,
	`$missing`,
	`doc("nope.xml")`,
	`1 div 0`,
	`substring("abc")`,
	// Shadowing: for-over-for, let-over-for, nested predicate context items.
	`FOR $x in (1, 2) FOR $x in ($x, 10) RETURN $x`,
	`FOR $x in ("a", "b") LET $x := concat($x, "!") RETURN $x`,
	`FOR $c in doc("a.xml")/catalog/course[nested[title = "Lab"]] RETURN $c/@id`,
}

// windowQueries read, re-bind and return variables the plan binds as
// one-item windows of their input: for variables, quantified variables
// and predicate context items. TestPlanMatchesInterpreter runs them, and
// FuzzCompileEval seeds its corpus with them.
var windowQueries = []string{
	// Two nested fors, the inner over the outer's variable.
	`FOR $c in doc("a.xml")/catalog/course FOR $i in $c/instructor RETURN concat($c/@id, ":", $i)`,
	`FOR $x in (1, 2) FOR $y in ($x, $x + 10) RETURN ($x, $y)`,
	// A let over a for variable.
	`FOR $c in doc("a.xml")/catalog/course LET $d := $c RETURN ($d/@id, count($d))`,
	// A predicate and a positional predicate on a step from a bound variable.
	`FOR $c in doc("a.xml")/catalog/course RETURN $c/nested[title = "Lab"]`,
	`FOR $c in doc("a.xml")/catalog/course RETURN $c/*[2]`,
	// some and every over a for variable.
	`FOR $c in doc("a.xml")/catalog/course WHERE some $i in $c/instructor satisfies $i = "Helen" RETURN $c/@id`,
	`FOR $c in doc("a.xml")/catalog/course RETURN every $d in $c satisfies $d/@credits > 2`,
}

// evalBoth runs src through the interpreter and the compiled plan against
// independent but identically configured contexts, and returns both
// outcomes.
func evalBoth(t *testing.T, src string) (want, got xquery.Sequence, werr, gerr error) {
	t.Helper()
	expr, err := xquery.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	want, werr = xquery.Eval(expr, newTestContext(t))
	p, err := plan.Compile(expr)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	got, gerr = p.Eval(newTestContext(t))
	return want, got, werr, gerr
}

func TestPlanMatchesInterpreter(t *testing.T) {
	for _, src := range slices.Concat(equivalenceQueries, windowQueries) {
		t.Run(src, func(t *testing.T) {
			want, got, werr, gerr := evalBoth(t, src)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("error divergence:\ninterpreter: %v\nplan:        %v", werr, gerr)
			}
			if werr != nil {
				if werr.Error() != gerr.Error() {
					t.Fatalf("error message divergence:\ninterpreter: %v\nplan:        %v", werr, gerr)
				}
				return
			}
			w, g := renderSequence(want), renderSequence(got)
			if w != g {
				t.Fatalf("result divergence:\ninterpreter:\n%s\nplan:\n%s", w, g)
			}
		})
	}
}

// TestShadowedBindings is the regression test for ordered-slot variable
// binding: repeated Context.Bind calls shadow deterministically, and
// shadowed for/let bindings resolve to the innermost binding in both
// engines.
func TestShadowedBindings(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`$g`, `[0] string "second"` + "\n"},
		{`FOR $x in (1, 2) FOR $x in ($x, 10) RETURN $x`,
			"[0] number 1\n[1] number 10\n[2] number 2\n[3] number 10\n"},
		{`FOR $x in ("a", "b") LET $x := concat($x, "!") RETURN $x`,
			`[0] string "a!"` + "\n" + `[1] string "b!"` + "\n"},
		{`FOR $g in ("inner") RETURN concat($g, "-", $n)`,
			`[0] string "inner-2"` + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.src, func(t *testing.T) {
			want, got, werr, gerr := evalBoth(t, tc.src)
			if werr != nil || gerr != nil {
				t.Fatalf("unexpected errors: interpreter=%v plan=%v", werr, gerr)
			}
			if w := renderSequence(want); w != tc.want {
				t.Fatalf("interpreter: got\n%s\nwant\n%s", w, tc.want)
			}
			if g := renderSequence(got); g != tc.want {
				t.Fatalf("plan: got\n%s\nwant\n%s", g, tc.want)
			}
		})
	}
}

func TestCacheCompilesOnce(t *testing.T) {
	cache := plan.NewCache()
	const src = `count(doc("a.xml")//course)`
	p1, err := cache.Get(src)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	p2, err := cache.Get(src)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if p1 != p2 {
		t.Fatalf("cache returned distinct plans for the same source")
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("Stats() = %d hits, %d misses; want 1, 1", hits, misses)
	}
	for i := 0; i < 2; i++ {
		if _, err := cache.Get(`FOR`); err == nil {
			t.Fatalf("Get of a syntax error compiled")
		}
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("syntax errors must not be cached; Stats() = %d hits, %d misses", hits, misses)
	}
}

func TestPlanExplainShowsReuse(t *testing.T) {
	p, err := plan.CompileQuery(`count(doc("a.xml")//title)`)
	if err != nil {
		t.Fatalf("CompileQuery: %v", err)
	}
	var outline string
	for i := 0; i < 2; i++ {
		ctx := newTestContext(t)
		ctx.Explain = explain.NewRecorder()
		if _, err := p.Eval(ctx); err != nil {
			t.Fatalf("Eval: %v", err)
		}
		outline = ctx.Explain.Trace().Outline()
	}
	if !strings.Contains(outline, "plan: plan") || !strings.Contains(outline, "evals=2") {
		t.Fatalf("second evaluation's trace should carry evals=2:\n%s", outline)
	}
}

func TestPlanDumpShape(t *testing.T) {
	p, err := plan.CompileQuery(
		`FOR $c in doc("a.xml")/catalog/course WHERE $c/title = "Lab" ORDER BY $c/@id RETURN <r>{$c/title}</r>`)
	if err != nil {
		t.Fatalf("CompileQuery: %v", err)
	}
	dump := p.Dump()
	for _, want := range []string{
		"flwor",
		"for $c slot=0",
		"call doc() builtin",
		"step child catalog",
		"step child course",
		"var $c slot=0",
		"order by",
		"element <r>",
	} {
		if !strings.Contains(dump, want) {
			t.Fatalf("Dump() missing %q:\n%s", want, dump)
		}
	}
}

func TestCompileQueryReturnsParseErrors(t *testing.T) {
	_, err := plan.CompileQuery(`FOR $x`)
	var pe *xquery.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("CompileQuery of bad input returned %T (%v), want *xquery.ParseError", err, err)
	}
}
