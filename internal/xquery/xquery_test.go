package xquery

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"thalia/internal/xmldom"
)

// testDocs is a tiny two-source corpus in the shape of the paper's examples.
var testDocs = map[string]string{
	"cmu.xml": `<cmu>
		<Course>
			<CourseNumber>15-415</CourseNumber>
			<CourseTitle>Database System Design and Implementation</CourseTitle>
			<Lecturer>Ailamaki</Lecturer>
			<Units>12</Units>
			<Time>1:30 - 2:50</Time>
			<Day>F</Day>
		</Course>
		<Course>
			<CourseNumber>15-567</CourseNumber>
			<CourseTitle>Secure Software Systems</CourseTitle>
			<Lecturer>Song/Wing</Lecturer>
			<Units>9</Units>
			<Time>3:00 - 4:20</Time>
			<Day>MW</Day>
		</Course>
		<Course>
			<CourseNumber>15-744</CourseNumber>
			<CourseTitle>Computer Networks</CourseTitle>
			<Lecturer>Zhang</Lecturer>
			<Units>12</Units>
			<Time>10:30 - 11:50</Time>
			<Day>TTh</Day>
		</Course>
	</cmu>`,
	"gatech.xml": `<gatech>
		<Course>
			<CRN>20381</CRN>
			<Instructor>Mark</Instructor>
			<Title>Intro-Network Management</Title>
			<Restrictions>JR or SR</Restrictions>
		</Course>
		<Course>
			<CRN>20432</CRN>
			<Instructor>Leo</Instructor>
			<Title>Database Systems</Title>
			<Restrictions></Restrictions>
		</Course>
	</gatech>`,
	"umd.xml": `<umd>
		<Course>
			<CourseNum>CMSC420</CourseNum>
			<CourseName>Data Structures</CourseName>
			<Section>
				<SectionNum>0101</SectionNum>
				<Teacher>Mount, D.</Teacher>
				<Time room="KEY0106">MWF 10</Time>
			</Section>
			<Section>
				<SectionNum>0201</SectionNum>
				<Teacher>Smith, A.</Teacher>
				<Time room="EGR2154">TTh 2</Time>
			</Section>
		</Course>
	</umd>`,
}

func testContext(t testing.TB) *Context {
	parsed := make(map[string]*xmldom.Document, len(testDocs))
	for name, src := range testDocs {
		parsed[name] = xmldom.MustParse(src)
	}
	return NewContext(func(uri string) (*xmldom.Document, error) {
		d, ok := parsed[uri]
		if !ok {
			return nil, fmt.Errorf("no such document %q", uri)
		}
		return d, nil
	})
}

func evalStrings(t *testing.T, query string) []string {
	t.Helper()
	seq, err := EvalQuery(query, testContext(t))
	if err != nil {
		t.Fatalf("EvalQuery(%q): %v", query, err)
	}
	out := make([]string, len(seq))
	for i, item := range seq {
		out[i] = ItemString(item)
	}
	return out
}

func TestPaperQueryShape(t *testing.T) {
	// The exact shape of the paper's Query 1.
	got := evalStrings(t, `FOR $b in doc("gatech.xml")/gatech/Course
		WHERE $b/Instructor = "Mark"
		RETURN $b`)
	if len(got) != 1 || !strings.Contains(got[0], "Intro-Network Management") {
		t.Errorf("query 1 shape: got %v", got)
	}
}

func TestLikePatternEquality(t *testing.T) {
	// The paper writes WHERE $b/CourseName='%Data Structures%'.
	got := evalStrings(t, `FOR $b in doc("cmu.xml")/cmu/Course
		WHERE $b/CourseTitle = '%Database%'
		RETURN $b/CourseNumber`)
	if len(got) != 1 || got[0] != "15-415" {
		t.Errorf("LIKE equality: got %v", got)
	}
	// Anchored patterns.
	got = evalStrings(t, `FOR $b in doc("cmu.xml")/cmu/Course
		WHERE $b/CourseTitle = 'Computer%'
		RETURN $b/CourseNumber`)
	if len(got) != 1 || got[0] != "15-744" {
		t.Errorf("prefix LIKE: got %v", got)
	}
	// Negated LIKE.
	got = evalStrings(t, `FOR $b in doc("cmu.xml")/cmu/Course
		WHERE $b/CourseTitle != '%Database%'
		RETURN $b/CourseNumber`)
	if len(got) != 2 {
		t.Errorf("negated LIKE: got %v", got)
	}
}

func TestNumericComparison(t *testing.T) {
	got := evalStrings(t, `FOR $b in doc("cmu.xml")/cmu/Course
		WHERE $b/Units > 10
		RETURN $b/CourseNumber`)
	if len(got) != 2 || got[0] != "15-415" || got[1] != "15-744" {
		t.Errorf("numeric >: got %v", got)
	}
	got = evalStrings(t, `FOR $b in doc("cmu.xml")/cmu/Course
		WHERE $b/Units >= 9 and $b/Units <= 9
		RETURN $b/Lecturer`)
	if len(got) != 1 || got[0] != "Song/Wing" {
		t.Errorf("and-combined: got %v", got)
	}
}

func TestDescendantAxisAndAttributes(t *testing.T) {
	got := evalStrings(t, `FOR $s in doc("umd.xml")//Section RETURN $s/Teacher`)
	if len(got) != 2 {
		t.Fatalf("descendants: got %v", got)
	}
	got = evalStrings(t, `FOR $x in doc("umd.xml")//Time RETURN $x/@room`)
	if len(got) != 2 || got[0] != "KEY0106" || got[1] != "EGR2154" {
		t.Errorf("attributes: got %v", got)
	}
}

func TestPredicates(t *testing.T) {
	got := evalStrings(t, `doc("cmu.xml")/cmu/Course[Units > 10]/CourseTitle`)
	if len(got) != 2 {
		t.Errorf("boolean predicate: got %v", got)
	}
	got = evalStrings(t, `doc("cmu.xml")/cmu/Course[2]/Lecturer`)
	if len(got) != 1 || got[0] != "Song/Wing" {
		t.Errorf("positional predicate: got %v", got)
	}
	got = evalStrings(t, `doc("umd.xml")//Time[@room = 'EGR2154']`)
	if len(got) != 1 || got[0] != "TTh 2" {
		t.Errorf("attribute predicate: got %v", got)
	}
}

func TestLetAndOrderBy(t *testing.T) {
	got := evalStrings(t, `FOR $c in doc("cmu.xml")/cmu/Course
		LET $u := $c/Units
		ORDER BY $c/CourseTitle
		RETURN $u`)
	if len(got) != 3 || got[0] != "12" {
		t.Errorf("let+order: got %v", got)
	}
	got = evalStrings(t, `FOR $c in doc("cmu.xml")/cmu/Course
		ORDER BY $c/Units descending
		RETURN $c/CourseNumber`)
	if got[len(got)-1] != "15-567" {
		t.Errorf("descending: got %v", got)
	}
}

func TestReturnJuxtaposition(t *testing.T) {
	// The paper's Query 12: RETURN $b/Title $b/Day (juxtaposed paths).
	got := evalStrings(t, `FOR $b in doc("cmu.xml")/cmu/Course
		WHERE $b/CourseTitle = '%Computer Networks%'
		RETURN $b/CourseTitle $b/Day`)
	if len(got) != 2 || got[0] != "Computer Networks" || got[1] != "TTh" {
		t.Errorf("juxtaposed return: got %v", got)
	}
}

func TestElementConstructor(t *testing.T) {
	seq, err := EvalQuery(`FOR $b in doc("cmu.xml")/cmu/Course
		WHERE $b/Units > 10
		RETURN <result units="{$b/Units}"><title>{$b/CourseTitle}</title></result>`, testContext(t))
	if err != nil {
		t.Fatalf("EvalQuery: %v", err)
	}
	if len(seq) != 2 {
		t.Fatalf("results = %d, want 2", len(seq))
	}
	el, ok := seq[0].(*xmldom.Element)
	if !ok {
		t.Fatalf("result not an element: %T", seq[0])
	}
	if el.Name != "result" || el.AttrValue("units") != "12" {
		t.Errorf("constructor attrs wrong: %s", el)
	}
	// {$b/CourseTitle} inserts the CourseTitle node itself (copy semantics),
	// so the text sits one level deeper.
	if got := el.Child("title").DeepText(); got != "Database System Design and Implementation" {
		t.Errorf("constructor content = %q", got)
	}
	if el.Child("title").Child("CourseTitle") == nil {
		t.Error("embedded node expression should insert the node, not its text")
	}
}

func TestConstructorLiteralAndNested(t *testing.T) {
	seq, err := EvalQuery(`<a x="1"><b>hi</b><c>{1 + 2}</c></a>`, testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	el := seq[0].(*xmldom.Element)
	if el.ChildText("b") != "hi" || el.ChildText("c") != "3" {
		t.Errorf("constructor: %s", el)
	}
}

func TestConstructorCopiesNodes(t *testing.T) {
	ctx := testContext(t)
	seq, err := EvalQuery(`FOR $b in doc("gatech.xml")/gatech/Course[1] RETURN <wrap>{$b/Title}</wrap>`, ctx)
	if err != nil {
		t.Fatal(err)
	}
	wrap := seq[0].(*xmldom.Element)
	title := wrap.Child("Title")
	if title == nil {
		t.Fatal("no copied Title")
	}
	title.Children = nil // mutate the copy
	// Source must be unchanged.
	again, err := EvalQuery(`doc("gatech.xml")/gatech/Course[1]/Title`, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := ItemString(again[0]); got != "Intro-Network Management" {
		t.Errorf("source mutated through constructor copy: %q", got)
	}
}

func TestStringFunctions(t *testing.T) {
	cases := []struct {
		q    string
		want string
	}{
		{`contains("Database Systems", "base")`, "true"},
		{`contains("Database Systems", "xyz")`, "false"},
		{`starts-with("CS016", "CS")`, "true"},
		{`ends-with("CS016", "16")`, "true"},
		{`substring("Datenbank", 1, 5)`, "Daten"},
		{`substring("Datenbank", 6)`, "bank"},
		{`substring-before("1:30 - 2:50", " - ")`, "1:30"},
		{`substring-after("1:30 - 2:50", " - ")`, "2:50"},
		{`string-length("abc")`, "3"},
		{`upper-case("jr")`, "JR"},
		{`lower-case("Datenbank")`, "datenbank"},
		{`normalize-space("  a   b  ")`, "a b"},
		{`translate("1:30", ":", ".")`, "1.30"},
		{`translate("abc", "abc", "xy")`, "xy"},
		{`concat("a", "b", "c")`, "abc"},
		{`string-join(("a","b","c"), "-")`, "a-b-c"},
		{`string(42)`, "42"},
		{`number("12") + 1`, "13"},
		{`count((1,2,3))`, "3"},
		{`sum((1,2,3))`, "6"},
		{`avg((2,4))`, "3"},
		{`min((5,2,9))`, "2"},
		{`max((5,2,9))`, "9"},
		{`not(false())`, "true"},
		{`exists(())`, "false"},
		{`empty(())`, "true"},
		{`string-join(distinct-values(("a","b","a")), ",")`, "a,b"},
		{`if (1 > 2) then "a" else "b"`, "b"},
		{`3 div 2`, "1.5"},
		{`7 mod 2`, "1"},
		{`-(3)`, "-3"},
		{`2 + 3 * 4`, "14"},
	}
	for _, c := range cases {
		got := evalStrings(t, c.q)
		if len(got) != 1 || got[0] != c.want {
			t.Errorf("%s = %v, want %s", c.q, got, c.want)
		}
	}
}

func TestQuantified(t *testing.T) {
	got := evalStrings(t, `some $u in doc("cmu.xml")/cmu/Course/Units satisfies $u > 11`)
	if got[0] != "true" {
		t.Errorf("some: %v", got)
	}
	got = evalStrings(t, `every $u in doc("cmu.xml")/cmu/Course/Units satisfies $u > 11`)
	if got[0] != "false" {
		t.Errorf("every: %v", got)
	}
}

func TestNameFunctions(t *testing.T) {
	got := evalStrings(t, `FOR $c in doc("umd.xml")/umd/Course/Section[1]/Time RETURN name($c)`)
	if len(got) != 1 || got[0] != "Time" {
		t.Errorf("name: %v", got)
	}
}

// TestExternalFunctions pins that the subset has no external functions: a
// call to any other name evaluates its arguments first, so their errors
// surface first, then fails as an unknown function.
func TestExternalFunctions(t *testing.T) {
	ctx := testContext(t)
	cases := map[string]string{
		`to24h(substring-before(doc("cmu.xml")/cmu/Course[1]/Time, " - "))`: "xquery: unknown function to24h()",
		`to24h(1 div 0)`:    "xquery: division by zero",
		`to24h($undefined)`: "xquery: unbound variable $undefined",
	}
	for q, want := range cases {
		_, err := EvalQuery(q, ctx)
		var de *DynamicError
		if !errors.As(err, &de) || err.Error() != want {
			t.Errorf("EvalQuery(%q) = %v, want DynamicError %q", q, err, want)
		}
	}
}

func TestErrors(t *testing.T) {
	parseErrs := []string{
		``,
		`FOR $b in`,
		`FOR b in doc("x")`,
		`FOR $b in doc("x") RETURN`,
		`LET $x = 3 RETURN $x`, // needs :=
		`$a[`,
		`doc("x")/`,
		`"unterminated`,
		`<a>{$x}`,               // unterminated constructor
		`<a></b>`,               // mismatched tags
		`fn(1,`,                 // unterminated args
		`1 +`,                   // missing operand
		`some $x in (1) sat $x`, // bad keyword
	}
	for _, q := range parseErrs {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q): expected error", q)
		}
	}

	ctx := testContext(t)
	dynErrs := []string{
		`$undefined`,
		`doc("missing.xml")`,
		`nosuchfn(1)`,
		`1 div 0`,
		`"abc" + 1`,
		`contains("a")`, // arity
		`sum(("a","b"))`,
	}
	for _, q := range dynErrs {
		if _, err := EvalQuery(q, ctx); err == nil {
			t.Errorf("EvalQuery(%q): expected error", q)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse(`FOR $b in doc("x") WHERE ^ RETURN $b`)
	se, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Pos <= 0 {
		t.Errorf("position = %d", se.Pos)
	}
	if se.Line != 1 || se.Column != 26 {
		t.Errorf("line:column = %d:%d, want 1:26", se.Line, se.Column)
	}
	if !strings.Contains(se.Error(), "line 1, column 26") {
		t.Errorf("message = %q", se.Error())
	}
}

func TestParseErrorMultilinePosition(t *testing.T) {
	_, err := Parse("FOR $b in doc(\"x\")/r/c\nWHERE $b/Title = ^\nRETURN $b")
	se, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Line != 2 {
		t.Errorf("line = %d, want 2", se.Line)
	}
	if se.Column != 18 {
		t.Errorf("column = %d, want 18", se.Column)
	}
}

func TestWalkVisitsAllNodes(t *testing.T) {
	e, err := Parse(`FOR $b in doc("x.xml")/r/Course
		WHERE $b/Title = '%DB%' and starts-with($b/Time, '1:30')
		ORDER BY $b/CRN
		RETURN <row id="{$b/CRN}">{$b/Title}</row>`)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	Walk(e, func(x Expr) bool {
		counts[fmt.Sprintf("%T", x)]++
		return true
	})
	for _, typ := range []string{"*xquery.FLWOR", "*xquery.Call", "*xquery.Binary", "*xquery.ElemCtor", "*xquery.PathExpr", "*xquery.StringLit"} {
		if counts[typ] == 0 {
			t.Errorf("Walk never visited %s (got %v)", typ, counts)
		}
	}
	// Predicates are visited too.
	e2, err := Parse(`FOR $b in doc("x.xml")/r/Course[Position = 1] RETURN $b`)
	if err != nil {
		t.Fatal(err)
	}
	sawPred := false
	Walk(e2, func(x Expr) bool {
		if b, ok := x.(*Binary); ok && b.Op == "=" {
			sawPred = true
		}
		return true
	})
	if !sawPred {
		t.Error("Walk did not visit step predicates")
	}
}

func TestIsBuiltin(t *testing.T) {
	if !IsBuiltin("starts-with") || !IsBuiltin("CONTAINS") {
		t.Error("IsBuiltin misses known builtins")
	}
	if IsBuiltin("frobnicate") {
		t.Error("IsBuiltin accepts unknown name")
	}
	if n := len(BuiltinNames()); n < 20 {
		t.Errorf("BuiltinNames returned %d names", n)
	}
}

func TestComments(t *testing.T) {
	got := evalStrings(t, `(: find the dbs course :) FOR $b in doc("gatech.xml")/gatech/Course
		WHERE contains($b/Title, "Database") RETURN $b/Instructor`)
	if len(got) != 1 || got[0] != "Leo" {
		t.Errorf("comments: %v", got)
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	for _, q := range []string{
		`for $b in doc("gatech.xml")/gatech/Course where $b/Instructor = "Mark" return $b/CRN`,
		`FOR $b IN doc("gatech.xml")/gatech/Course WHERE $b/Instructor = "Mark" RETURN $b/CRN`,
	} {
		seq, err := EvalQuery(q, testContext(t))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(seq) != 1 || ItemString(seq[0]) != "20381" {
			t.Errorf("%s: %v", q, seq)
		}
	}
}

func TestEmptySequenceSemantics(t *testing.T) {
	// Comparison against a missing element is false, not an error — the
	// paper's case 6 (Nulls) relies on this.
	got := evalStrings(t, `FOR $b in doc("gatech.xml")/gatech/Course
		WHERE $b/NoSuchField = "x" RETURN $b`)
	if len(got) != 0 {
		t.Errorf("missing-field comparison should be empty, got %v", got)
	}
}

func TestWildcardStep(t *testing.T) {
	got := evalStrings(t, `count(doc("gatech.xml")/gatech/Course[1]/*)`)
	if got[0] != "4" {
		t.Errorf("wildcard count = %v", got)
	}
}

func TestMultipleForClauses(t *testing.T) {
	got := evalStrings(t, `FOR $a in (1,2), $b in (10,20) RETURN $a + $b`)
	want := []string{"11", "21", "12", "22"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("cartesian: %v", got)
	}
}

// Property: likeMatch("%"+s+"%", x) is equivalent to strings.Contains when s
// itself has no wildcard.
func TestQuickLikeContains(t *testing.T) {
	f := func(s, x string) bool {
		if strings.Contains(s, "%") || strings.Contains(x, "%") {
			return true
		}
		return likeMatch("%"+s+"%", x) == strings.Contains(x, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: every value matches the universal pattern and itself.
func TestQuickLikeIdentity(t *testing.T) {
	f := func(x string) bool {
		if strings.Contains(x, "%") {
			return true
		}
		return likeMatch("%", x) && likeMatch("%"+x, x) && likeMatch(x+"%", x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// likeMatch anchors a pattern's first segment at the start unless the
// pattern opens with %, and its last at the end unless it closes with %;
// empty segments match anywhere. It allocates nothing.
func TestLikeMatch(t *testing.T) {
	for _, tc := range []struct {
		pattern, value string
		want           bool
	}{
		{"", "a", true},
		{"%", "a", true},
		{"%%", "a", true},
		{"a%", "a", true},
		{"%a", "a", true},
		{"a%b%c", "a", false},
		{"a%a", "a", false},
		{"a%b%c", "axbyc", true},
		{"a%b%c", "acb", false},
		{"a%a", "aba", true},
		{"%JR%", "CS JR 101", true},
		{"Database", "Database", true},
		{"Database", "Databases", false},
		{"Database", "A Database", false},
	} {
		if got := likeMatch(tc.pattern, tc.value); got != tc.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", tc.pattern, tc.value, got, tc.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { likeMatch("%Data%base%", "Introduction to Database Systems") }); n != 0 {
		t.Errorf("likeMatch allocates %.0f times per call, want 0", n)
	}
}

// itemNumber reads a string as strconv.ParseFloat does after trimming
// space, and skips the parse, allocating nothing, for a string that cannot
// start a float.
func TestItemNumberMatchesParseFloat(t *testing.T) {
	for _, s := range []string{" 12 ", "+.5", "Inf", "-infinity", "NaN", "0x1p-2", "1_000", "CS101", ""} {
		got, ok := itemNumber(s)
		want, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if ok != (err == nil) || ok && got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("itemNumber(%q) = %v, %v; ParseFloat gives %v, %v", s, got, ok, want, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { itemNumber("CS101") }); n != 0 {
		t.Errorf("itemNumber of a non-numeric string allocates %.0f times, want 0", n)
	}
}

// Property: parsing is deterministic and never panics on fuzz-ish inputs.
func TestQuickParseNoPanic(t *testing.T) {
	f := func(s string) bool {
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestConstructorAttributeEmbeddedExpr(t *testing.T) {
	seq, err := EvalQuery(`FOR $b in doc("cmu.xml")/cmu/Course
		WHERE $b/CourseNumber = "15-415"
		RETURN <c id="{$b/CourseNumber}-x" fixed="y"/>`, testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	el := seq[0].(*xmldom.Element)
	if el.AttrValue("id") != "15-415-x" || el.AttrValue("fixed") != "y" {
		t.Errorf("attrs: %s", el)
	}
}

func TestConstructorBraceEscapes(t *testing.T) {
	seq, err := EvalQuery(`<a b="{{x}}">lit {{text}} here</a>`, testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	el := seq[0].(*xmldom.Element)
	if el.AttrValue("b") != "{x}" {
		t.Errorf("attr escape: %q", el.AttrValue("b"))
	}
	if got := el.Text(); !strings.Contains(got, "{text}") {
		t.Errorf("text escape: %q", got)
	}
}

func TestConstructorEntityDecoding(t *testing.T) {
	seq, err := EvalQuery(`<a>x &amp; y &lt;z&gt;</a>`, testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := seq[0].(*xmldom.Element).Text(); got != "x & y <z>" {
		t.Errorf("entities: %q", got)
	}
}

func TestConstructorSelfClosing(t *testing.T) {
	seq, err := EvalQuery(`<empty k="v"/>`, testContext(t))
	if err != nil {
		t.Fatal(err)
	}
	el := seq[0].(*xmldom.Element)
	if el.Name != "empty" || el.AttrValue("k") != "v" || len(el.Children) != 0 {
		t.Errorf("self-closing: %s", el)
	}
}

func TestConstructorErrors(t *testing.T) {
	for _, q := range []string{
		`<a b=>x</a>`,          // missing value
		`<a b="unterminated>x`, // unterminated attribute
		`<a>{1 + }</a>`,        // bad embedded expression
		`<a>{unclosed</a>`,     // unterminated brace
		`<a>}</a>`,             // stray close brace
		`<a><b></a></b>`,       // crossed nesting
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q): expected error", q)
		}
	}
}

func TestOrderByNumericVsString(t *testing.T) {
	got := evalStrings(t, `FOR $x in (10, 9, 2) ORDER BY $x RETURN $x`)
	if strings.Join(got, ",") != "2,9,10" {
		t.Errorf("numeric order: %v", got)
	}
	got = evalStrings(t, `FOR $x in ("b", "a", "c") ORDER BY $x RETURN $x`)
	if strings.Join(got, ",") != "a,b,c" {
		t.Errorf("string order: %v", got)
	}
	got = evalStrings(t, `FOR $x in (1, 2, 3) ORDER BY $x descending RETURN $x`)
	if strings.Join(got, ",") != "3,2,1" {
		t.Errorf("descending order: %v", got)
	}
}

func TestLetSequenceBinding(t *testing.T) {
	got := evalStrings(t, `LET $xs := (1, 2, 3) RETURN count($xs)`)
	if len(got) != 1 || got[0] != "3" {
		t.Errorf("let binds whole sequence: %v", got)
	}
	got = evalStrings(t, `LET $a := 1, $b := 2 RETURN $a + $b`)
	if got[0] != "3" {
		t.Errorf("multi-let: %v", got)
	}
}

func TestNestedFLWOR(t *testing.T) {
	got := evalStrings(t, `FOR $c in doc("umd.xml")/umd/Course
		RETURN (FOR $s in $c/Section RETURN $s/Teacher)`)
	if len(got) != 2 {
		t.Errorf("nested flwor: %v", got)
	}
}

func TestAttributeWildcard(t *testing.T) {
	got := evalStrings(t, `count(doc("umd.xml")//Time[1]/@*)`)
	if got[0] != "1" {
		t.Errorf("@*: %v", got)
	}
}

func TestIfInsideWhere(t *testing.T) {
	got := evalStrings(t, `FOR $b in doc("cmu.xml")/cmu/Course
		WHERE if ($b/Units > 10) then true() else false()
		RETURN $b/CourseNumber`)
	if len(got) != 2 {
		t.Errorf("if-in-where: %v", got)
	}
}

func TestDoubledQuoteEscape(t *testing.T) {
	got := evalStrings(t, `'it''s'`)
	if got[0] != "it's" {
		t.Errorf("doubled quote: %v", got)
	}
	got = evalStrings(t, `"say ""hi"""`)
	if got[0] != `say "hi"` {
		t.Errorf("doubled double quote: %v", got)
	}
}

func TestUnterminatedComment(t *testing.T) {
	// An unterminated comment consumes the rest of the input, leaving an
	// incomplete expression.
	if _, err := Parse(`1 + (: never closed`); err == nil {
		t.Error("expected error")
	}
}

func TestEffectiveBoolMultiItem(t *testing.T) {
	got := evalStrings(t, `if ((0, 0)) then "t" else "f"`)
	if got[0] != "t" {
		t.Errorf("multi-item sequences are true: %v", got)
	}
	got = evalStrings(t, `if (0) then "t" else "f"`)
	if got[0] != "f" {
		t.Errorf("zero is false: %v", got)
	}
}

func TestQuantifiedOverEmpty(t *testing.T) {
	got := evalStrings(t, `every $x in () satisfies $x > 5`)
	if got[0] != "true" {
		t.Errorf("every over empty: %v", got)
	}
	got = evalStrings(t, `some $x in () satisfies $x > 5`)
	if got[0] != "false" {
		t.Errorf("some over empty: %v", got)
	}
}
