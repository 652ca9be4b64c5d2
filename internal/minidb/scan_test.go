package minidb

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mixedTables builds two tables whose "code" columns mix Text, Number,
// Bool and NULL cells — the cases where Compare's numeric coercion makes
// Text '3' meet Number 3 — so the scan tests cover more than the
// Text-vs-Text case. tags gives joins the same mixed-kind key on both sides.
func mixedTables(t testing.TB) (items, tags *Table) {
	items = NewTable("items", "code", "qty", "label")
	for _, r := range [][]Value{
		{Text("a1"), Number(1), Text("first")},
		{Text("3"), Number(2), Text("digit-like text")},
		{Number(3), Number(3), Text("number three")},
		{Null, Number(4), Text("null code")},
		{Text("a1"), Number(5), Text("duplicate key")},
		{Bool(true), Number(6), Text("bool code")},
		{Text("true"), Number(7), Text("text true")},
		{Text(""), Number(8), Text("empty text")},
	} {
		if err := items.Insert(r...); err != nil {
			t.Fatal(err)
		}
	}
	tags = NewTable("tags", "code", "tag")
	for _, r := range [][]Value{
		{Text("a1"), Text("alpha")},
		{Text("3"), Text("digits")},
		{Number(3), Text("numeric")},
		{Null, Text("missing")},
		{Text("a1"), Text("alpha-dup")},
		{Bool(true), Text("boolean")},
		{Text("zz"), Text("orphan")},
	} {
		if err := tags.Insert(r...); err != nil {
			t.Fatal(err)
		}
	}
	return items, tags
}

// mixedDB is a fresh database over mixedTables.
func mixedDB(t testing.TB) *DB {
	items, tags := mixedTables(t)
	db := NewDB()
	db.CreateTable(items)
	db.CreateTable(tags)
	return db
}

func renderResult(res *Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, "|") + "\n")
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = fmt.Sprintf("%d:%s", v.Kind, v.String())
		}
		b.WriteString(strings.Join(parts, "|") + "\n")
	}
	return b.String()
}

// renderQuery runs sql on a fresh mixedDB and renders its rows, or its
// error message.
func renderQuery(t testing.TB, sql string) string {
	res, err := mixedDB(t).Query(sql)
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	return renderResult(res)
}

// scanQueries are the scans whose rows and errors testdata/scan.golden
// pins: equality on mixed-kind cells, conjunct orders, fallible conjuncts
// before and after an equality, and two-table joins.
var scanQueries = []string{
	`SELECT * FROM items WHERE code = 'a1'`,
	`SELECT * FROM items WHERE 'a1' = code`,
	// Text literal '3' must also match the Number(3) cell (numeric
	// coercion).
	`SELECT * FROM items WHERE code = '3'`,
	`SELECT * FROM items WHERE code = 'true'`,
	`SELECT * FROM items WHERE code = ''`,
	`SELECT * FROM items WHERE code = 'missing'`,
	// Equality as the leftmost AND-conjunct, with more predicate behind it.
	`SELECT label FROM items WHERE code = 'a1' AND qty > 1`,
	`SELECT label FROM items WHERE code = '3' AND qty < 3 ORDER BY qty DESC`,
	// The equality behind other conjuncts (comparisons, LIKE, IS NULL,
	// NOT), or two equalities.
	`SELECT * FROM items WHERE qty > 1 AND code = 'a1'`,
	`SELECT * FROM items WHERE label LIKE '%e%' AND code = 'a1' AND qty < 6`,
	`SELECT * FROM items WHERE code IS NOT NULL AND code = '3'`,
	`SELECT * FROM items WHERE NOT (qty > 6) AND code = 'true'`,
	`SELECT * FROM items WHERE code = 'a1' AND label = 'first'`,
	`SELECT * FROM items WHERE code = 'a1' AND code = 'a1'`,
	`SELECT * FROM items WHERE code = 'a1' AND code = '3'`,
	// Conjuncts that may error, ahead of the equality.
	`SELECT * FROM items WHERE qty + 1 > 2 AND code = 'a1'`,
	`SELECT * FROM items WHERE length(label) > 4 AND code = 'a1'`,
	// OR at the top, a number literal, aliases, DISTINCT.
	`SELECT * FROM items WHERE code = 'a1' OR qty = 4`,
	`SELECT * FROM items WHERE qty = 3`,
	`SELECT i.label FROM items i WHERE i.code = 'a1'`,
	`SELECT DISTINCT code FROM items WHERE code = 'a1'`,
	// Joins: mixed-kind keys on both sides, literals on either table, key
	// conjuncts in both orders, self-joins.
	`SELECT i.label, t.tag FROM items i, tags t WHERE i.code = t.code`,
	`SELECT i.label, t.tag FROM items i, tags t WHERE t.code = i.code`,
	`SELECT i.label, t.tag FROM items i, tags t WHERE i.code = t.code AND t.tag = 'alpha'`,
	`SELECT i.label, t.tag FROM items i, tags t WHERE i.code = 'a1' AND i.code = t.code`,
	`SELECT i.label, t.tag FROM items i, tags t WHERE i.code = t.code AND i.qty > 2 ORDER BY t.tag`,
	`SELECT a.tag, b.tag FROM tags a, tags b WHERE a.code = b.code`,
	`SELECT i.label FROM items i, tags t WHERE t.tag = 'orphan'`,
	`SELECT i.label, t.tag FROM items i, tags t WHERE i.qty * 2 > 3 AND i.code = t.code`,
	// Errors: the first failing row in scan order decides the message.
	`SELECT * FROM items WHERE code = 'a1' AND qty / 0 > 1`,
}

// joinErrorQueries are joins whose WHERE fails on some joined rows; the
// first failing row in the nested loop's order decides the message, which
// testdata/scan.golden pins after the scanQueries blocks.
var joinErrorQueries = []string{
	`SELECT * FROM items i, tags t WHERE i.code = t.code AND i.qty / 0 > 1`,
	`SELECT * FROM items i, tags t WHERE i.code = t.code AND t.tag + 1 > 0`,
	`SELECT * FROM items i, tags t WHERE t.tag = 'alpha' AND i.label - 1 > 0`,
}

// TestScanResults pins the rows, in order, and the error message of every
// scanQueries entry, and of the joinErrorQueries as one group, to
// testdata/scan.golden. The golden holds one block per query: a "== query"
// line, then the rendered result or "error: message".
func TestScanResults(t *testing.T) {
	const path = "testdata/scan.golden"
	data, err := os.ReadFile(filepath.FromSlash(path))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	var order []string
	for _, block := range strings.Split(strings.TrimPrefix(string(data), "== "), "\n== ") {
		q, body, _ := strings.Cut(block, "\n")
		want[q] = body
		order = append(order, q)
	}
	all := append(append([]string(nil), scanQueries...), joinErrorQueries...)
	if strings.Join(order, "\n") != strings.Join(all, "\n") {
		t.Fatalf("%s covers queries\n%s\nwant scanQueries then joinErrorQueries\n%s", path, strings.Join(order, "\n"), strings.Join(all, "\n"))
	}
	check := func(t *testing.T, q string) {
		if got := renderQuery(t, q); got != want[q] {
			t.Errorf("got:\n%swant (%s):\n%s", got, path, want[q])
		}
	}
	for _, q := range scanQueries {
		t.Run(q, func(t *testing.T) { check(t, q) })
	}
	t.Run("join errors", func(t *testing.T) {
		for _, q := range joinErrorQueries {
			t.Run(q, func(t *testing.T) { check(t, q) })
		}
	})
}

// TestInsertAfterQueryIsVisible checks that a query reads the table as it
// is now: a row inserted after a first query shows up in the next, on a
// single table and on either side of a join.
func TestInsertAfterQueryIsVisible(t *testing.T) {
	count := func(t *testing.T, db *DB, q string) int {
		t.Helper()
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}

	t.Run("single table", func(t *testing.T) {
		items, tags := mixedTables(t)
		db := NewDB()
		db.CreateTable(items)
		db.CreateTable(tags)
		const q = `SELECT qty FROM items WHERE code = 'a1'`
		if n := count(t, db, q); n != 2 {
			t.Fatalf("before insert: %d rows, want 2", n)
		}
		if err := items.Insert(Text("a1"), Number(9), Text("late insert")); err != nil {
			t.Fatal(err)
		}
		if n := count(t, db, q); n != 3 {
			t.Fatalf("after insert: %d rows, want 3", n)
		}
	})

	t.Run("join", func(t *testing.T) {
		items, tags := mixedTables(t)
		db := NewDB()
		db.CreateTable(items)
		db.CreateTable(tags)
		const q = `SELECT i.label, t.tag FROM items i, tags t WHERE i.code = t.code AND t.tag = 'late'`
		if n := count(t, db, q); n != 0 {
			t.Fatalf("before insert: %d rows, want 0", n)
		}
		if err := tags.Insert(Text("a1"), Text("late")); err != nil {
			t.Fatal(err)
		}
		if n := count(t, db, q); n != 2 {
			t.Fatalf("after inner insert: %d rows, want 2 (both a1 items)", n)
		}
		if err := items.Insert(Text("a1"), Number(10), Text("later item")); err != nil {
			t.Fatal(err)
		}
		if n := count(t, db, q); n != 3 {
			t.Fatalf("after outer insert: %d rows, want 3", n)
		}
	})
}
