package minidb

import (
	"strings"
	"testing"
	"testing/quick"
)

func testDB(t testing.TB) *DB {
	db := NewDB()
	courses := NewTable("courses", "num", "title", "lecturer", "units", "textbook")
	rows := []struct {
		num, title, lect string
		units            float64
		book             Value
	}{
		{"15-415", "Database System Design and Implementation", "Ailamaki", 12, Text("")},
		{"15-712", "Secure Software Systems", "Song/Wing", 12, Text("Security Engineering")},
		{"15-817", "Specification and Verification", "Clarke", 12, Null},
		{"15-744", "Computer Networks", "Zhang", 12, Text("Top-Down Approach")},
		{"15-567", "Embedded Systems", "Mark", 9, Text("Gajski")},
	}
	for _, r := range rows {
		if err := courses.Insert(Text(r.num), Text(r.title), Text(r.lect), Number(r.units), r.book); err != nil {
			t.Fatal(err)
		}
	}
	db.CreateTable(courses)

	rooms := NewTable("rooms", "num", "room")
	_ = rooms.Insert(Text("15-415"), Text("WEH 5409"))
	_ = rooms.Insert(Text("15-744"), Text("WEH 5403"))
	db.CreateTable(rooms)
	return db
}

func TestBasicSelect(t *testing.T) {
	db := testDB(t)
	res, err := db.Query("SELECT num, lecturer FROM courses WHERE title LIKE '%Database%'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "15-415" || res.Rows[0][1].String() != "Ailamaki" {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "num" || res.Columns[1] != "lecturer" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	res, err := db.Query("SELECT * FROM courses")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || len(res.Columns) != 5 {
		t.Errorf("star: %d rows, %d cols", len(res.Rows), len(res.Columns))
	}
}

func TestNumericComparison(t *testing.T) {
	db := testDB(t)
	res, err := db.Query("SELECT num FROM courses WHERE units > 10 ORDER BY num")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].String() != "15-415" {
		t.Errorf("order: %v", res.Rows)
	}
}

func TestOrderDesc(t *testing.T) {
	db := testDB(t)
	res, err := db.Query("SELECT num FROM courses ORDER BY units DESC")
	if err != nil {
		t.Fatal(err)
	}
	last := res.Rows[len(res.Rows)-1][0].String()
	if last != "15-567" {
		t.Errorf("desc order: %v", res.Rows)
	}
}

func TestJoin(t *testing.T) {
	db := testDB(t)
	res, err := db.Query(`SELECT c.num, r.room FROM courses c, rooms r WHERE c.num = r.num ORDER BY c.num`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("join rows = %v", res.Rows)
	}
	if res.Rows[0][1].String() != "WEH 5409" {
		t.Errorf("join: %v", res.Rows)
	}
}

func TestNullSemantics(t *testing.T) {
	db := testDB(t)
	// Comparisons with NULL are unknown → row filtered out.
	res, err := db.Query("SELECT num FROM courses WHERE textbook = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("null compare: %v", res.Rows)
	}
	res, err = db.Query("SELECT num FROM courses WHERE textbook IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "15-817" {
		t.Errorf("IS NULL: %v", res.Rows)
	}
	res, err = db.Query("SELECT num FROM courses WHERE textbook IS NOT NULL AND textbook <> ''")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("IS NOT NULL: %v", res.Rows)
	}
	// COALESCE renders NULLs.
	res, err = db.Query("SELECT coalesce(textbook, 'none listed') FROM courses WHERE num = '15-817'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].String() != "none listed" {
		t.Errorf("coalesce: %v", res.Rows)
	}
}

func TestDistinct(t *testing.T) {
	db := testDB(t)
	res, err := db.Query("SELECT DISTINCT units FROM courses ORDER BY units")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("distinct: %v", res.Rows)
	}
}

func TestViews(t *testing.T) {
	db := testDB(t)
	// A local-to-global mapping view, Cohera style.
	if err := db.CreateView("globalcourses",
		`SELECT num AS course, title AS name, lecturer AS instructor FROM courses`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT instructor FROM globalcourses WHERE name LIKE '%Verification%'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "Clarke" {
		t.Errorf("view: %v", res.Rows)
	}
	if err := db.CreateView("bad", "SELECT FROM"); err == nil {
		t.Error("expected parse error for bad view")
	}
}

func TestUDF(t *testing.T) {
	db := testDB(t)
	db.Register(&Func{
		Name: "to24h",
		Fn: func(args []Value) (Value, error) {
			if args[0].IsNull() {
				return Null, nil
			}
			if args[0].String() == "1:30" {
				return Text("13:30"), nil
			}
			return args[0], nil
		},
	})
	res, err := db.Query("SELECT to24h('1:30') FROM courses WHERE num = '15-415'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].String() != "13:30" {
		t.Errorf("udf: %v", res.Rows)
	}
}

func TestBuiltins(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		q, want string
	}{
		{"SELECT lower(title) FROM courses WHERE num = '15-744'", "computer networks"},
		{"SELECT upper(lecturer) FROM courses WHERE num = '15-744'", "ZHANG"},
		{"SELECT length(num) FROM courses WHERE num = '15-744'", "6"},
		{"SELECT trim('  x  ') FROM courses WHERE num = '15-744'", "x"},
		{"SELECT substr(title, 1, 8) FROM courses WHERE num = '15-744'", "Computer"},
		{"SELECT substr(title, 2, -1) FROM courses WHERE num = '15-744'", ""},
		{"SELECT substr(title, 1, 99999999999999999999) FROM courses WHERE num = '15-744'", "Computer Networks"},
		{"SELECT substr(title, -99999999999999999999, 3) FROM courses WHERE num = '15-744'", "Com"},
		{"SELECT num || '!' FROM courses WHERE num = '15-744'", "15-744!"},
		{"SELECT units + 1 FROM courses WHERE num = '15-744'", "13"},
		{"SELECT units * 2 / 4 FROM courses WHERE num = '15-744'", "6"},
		{"SELECT -units FROM courses WHERE num = '15-744'", "-12"},
	}
	for _, c := range cases {
		res, err := db.Query(c.q)
		if err != nil {
			t.Errorf("%s: %v", c.q, err)
			continue
		}
		if len(res.Rows) != 1 || res.Rows[0][0].String() != c.want {
			t.Errorf("%s = %v, want %s", c.q, res.Rows, c.want)
		}
	}
}

func TestErrors(t *testing.T) {
	db := testDB(t)
	for _, q := range []string{
		"",
		"SELECT",
		"SELECT num",            // no FROM
		"SELECT num FROM",       // missing table
		"SELECT num FROM ghost", // unknown table
		"SELECT ghost FROM courses",
		"SELECT num FROM courses WHERE",
		"SELECT num FROM courses WHERE units ==",
		"SELECT nofn(1) FROM courses",
		"SELECT num FROM courses ORDER",
		"SELECT 'unterminated FROM courses",
		"SELECT num FROM courses extra garbage here",
		"SELECT units / 0 FROM courses",
		"SELECT title + 1 FROM courses",
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("Query(%q): expected error", q)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := testDB(t)
	if _, err := db.Query("SELECT num FROM courses, rooms"); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("expected ambiguity error, got %v", err)
	}
}

func TestInsertArity(t *testing.T) {
	tbl := NewTable("t", "a", "b")
	if err := tbl.Insert(Text("1")); err == nil {
		t.Error("expected arity error")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		v, p string
		want bool
	}{
		{"Database Systems", "%Database%", true},
		{"Database Systems", "Database%", true},
		{"Database Systems", "%Systems", true},
		{"Database Systems", "%Data_ase%", true},
		{"Database Systems", "Systems%", false},
		{"abc", "a%c", true},
		{"abc", "a_c", true},
		{"abc", "a_d", false},
		{"", "%", true},
		{"", "_", false},
		{"x", "x", true},
	}
	for _, c := range cases {
		if got := Like(c.v, c.p); got != c.want {
			t.Errorf("Like(%q, %q) = %v, want %v", c.v, c.p, got, c.want)
		}
	}
}

func TestValueCoercions(t *testing.T) {
	if n, ok := Text("12").AsNumber(); !ok || n != 12 {
		t.Error("text coercion")
	}
	if _, ok := Text("abc").AsNumber(); ok {
		t.Error("bad coercion accepted")
	}
	if Null.AsBool() || !Bool(true).AsBool() || Number(0).AsBool() {
		t.Error("bool coercions")
	}
	if Number(1.5).String() != "1.5" || Number(3).String() != "3" {
		t.Error("number formatting")
	}
	if Null.String() != "NULL" {
		t.Error("null formatting")
	}
}

func TestCompareOrdering(t *testing.T) {
	if Compare(Number(2), Number(10)) >= 0 {
		t.Error("numeric compare")
	}
	if Compare(Text("2"), Text("10")) <= 0 {
		t.Error("text compare should be lexicographic")
	}
	if Compare(Number(2), Text("10")) >= 0 {
		t.Error("mixed compare should be numeric")
	}
	if Compare(Text("a"), Text("a")) != 0 {
		t.Error("equal texts")
	}
}

// Property: LIKE with a %-wrapped literal is contains().
func TestQuickLikeContains(t *testing.T) {
	f := func(s, sub string) bool {
		if strings.ContainsAny(sub, "%_") || strings.ContainsAny(s, "%_") {
			return true
		}
		return Like(s, "%"+sub+"%") == strings.Contains(s, sub)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every parsed query either errors or returns rows whose width
// matches the column header.
func TestQuickResultShape(t *testing.T) {
	db := testDB(t)
	queries := []string{
		"SELECT * FROM courses",
		"SELECT num FROM courses",
		"SELECT num, title FROM courses WHERE units > 9",
		"SELECT DISTINCT units FROM courses",
	}
	for _, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for _, row := range res.Rows {
			if len(row) != len(res.Columns) {
				t.Errorf("%s: row width %d != %d columns", q, len(row), len(res.Columns))
			}
		}
	}
}

func TestViewOverView(t *testing.T) {
	db := testDB(t)
	if err := db.CreateView("v1", "SELECT num, title, units FROM courses"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("v2", "SELECT num FROM v1 WHERE units > 10"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT * FROM v2 ORDER BY num")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("view over view: %v", res.Rows)
	}
}

func TestOrderByExpression(t *testing.T) {
	db := testDB(t)
	res, err := db.Query("SELECT num FROM courses ORDER BY length(title) ASC")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].String() != "15-567" { // "Embedded Systems" is shortest
		t.Errorf("order by expr: %v", res.Rows)
	}
}

func TestWhereWithParensAndNot(t *testing.T) {
	db := testDB(t)
	res, err := db.Query(`SELECT num FROM courses WHERE NOT (units = 12) AND num <> ''`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "15-567" {
		t.Errorf("not+parens: %v", res.Rows)
	}
	res, err = db.Query(`SELECT num FROM courses WHERE units = 9 OR title LIKE '%Networks%' ORDER BY num`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("or: %v", res.Rows)
	}
}

func TestProjectionAliases(t *testing.T) {
	db := testDB(t)
	res, err := db.Query(`SELECT num AS course, upper(lecturer) AS who FROM courses WHERE num = '15-744'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "course" || res.Columns[1] != "who" {
		t.Errorf("aliases: %v", res.Columns)
	}
	if res.Rows[0][1].String() != "ZHANG" {
		t.Errorf("alias value: %v", res.Rows)
	}
}

func TestStringLiteralEscapes(t *testing.T) {
	db := testDB(t)
	res, err := db.Query(`SELECT 'it''s' FROM courses WHERE num = '15-744'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].String() != "it's" {
		t.Errorf("escape: %v", res.Rows)
	}
}

func TestQualifiedStarAndAliasScope(t *testing.T) {
	db := testDB(t)
	res, err := db.Query(`SELECT c.title FROM courses c WHERE c.num = '15-817'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "Specification and Verification" {
		t.Errorf("alias scope: %v", res.Rows)
	}
	if _, err := db.Query(`SELECT x.title FROM courses c`); err == nil {
		t.Error("unknown alias should error")
	}
}

func TestBooleanLiteralsAndComparison(t *testing.T) {
	db := testDB(t)
	res, err := db.Query(`SELECT TRUE, FALSE FROM courses WHERE num = '15-744'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].String() != "true" || res.Rows[0][1].String() != "false" {
		t.Errorf("booleans: %v", res.Rows)
	}
}

func TestUDFErrorPropagates(t *testing.T) {
	db := testDB(t)
	db.Register(&Func{Name: "boom", Fn: func(args []Value) (Value, error) {
		return Null, strings.NewReader("").UnreadRune()
	}})
	if _, err := db.Query("SELECT boom(1) FROM courses"); err == nil {
		t.Error("UDF error should propagate")
	}
}

func TestCyclicViewFailsCleanly(t *testing.T) {
	db := testDB(t)
	if err := db.CreateView("loop", "SELECT * FROM loop"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT * FROM loop"); err == nil ||
		!strings.Contains(err.Error(), "cyclic") {
		t.Errorf("cyclic view: %v", err)
	}
	// Mutual recursion too.
	if err := db.CreateView("a1", "SELECT * FROM b1"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("b1", "SELECT * FROM a1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT * FROM a1"); err == nil {
		t.Error("mutual view recursion should error")
	}
}
