package minidb

import "testing"

// FuzzQuery runs every generated SQL text twice, each time on a fresh
// mixed-kind fixture. Query must never panic, and the two runs must agree on
// the result bytes or on the error message: nothing a query does may leak
// into the next database.
func FuzzQuery(f *testing.F) {
	for _, seed := range []string{
		`SELECT * FROM items WHERE code = 'a1'`,
		`SELECT * FROM items WHERE qty > 1 AND code = 'a1'`,
		`SELECT * FROM items WHERE code = 'a1' AND code = '3'`,
		`SELECT * FROM items WHERE qty + 1 > 2 AND code = 'a1'`,
		`SELECT * FROM items WHERE code = '3' AND qty / 0 > 1`,
		`SELECT i.label, t.tag FROM items i, tags t WHERE i.code = t.code`,
		`SELECT i.label FROM items i, tags t WHERE i.code = t.code AND t.tag = 'alpha'`,
		`SELECT * FROM items i, tags t WHERE i.code = t.code AND t.tag + 1 > 0`,
		`SELECT DISTINCT code FROM items WHERE code = 'a1' ORDER BY qty DESC`,
		// substr with a negative length, with one that overflows int, and
		// with a start below int's range.
		`SELECT substr(label, 2, -1) FROM items`,
		`SELECT substr(label, 1, 99999999999999999999) FROM items`,
		`SELECT substr(label, -99999999999999999999, 3) FROM items`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		first, second := renderQuery(t, sql), renderQuery(t, sql)
		if first != second {
			t.Fatalf("two runs of %q differ:\nfirst:\n%s\nsecond:\n%s", sql, first, second)
		}
	})
}
