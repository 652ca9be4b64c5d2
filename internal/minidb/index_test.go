package minidb

import (
	"fmt"
	"strings"
	"testing"
)

// mixedDB builds tables whose "code" columns mix Text, Number, Bool and
// NULL cells — the cases where Compare's numeric coercion makes a naive
// string-keyed index unsound — so the identity tests cover the residual
// path, not just the happy Text-vs-Text case. The second table gives the
// join-key probes the same mixed-kind key on both sides.
func mixedDB(t testing.TB) *DB {
	db := NewDB()
	tab := NewTable("items", "code", "qty", "label")
	rows := [][]Value{
		{Text("a1"), Number(1), Text("first")},
		{Text("3"), Number(2), Text("digit-like text")},
		{Number(3), Number(3), Text("number three")},
		{Null, Number(4), Text("null code")},
		{Text("a1"), Number(5), Text("duplicate key")},
		{Bool(true), Number(6), Text("bool code")},
		{Text("true"), Number(7), Text("text true")},
		{Text(""), Number(8), Text("empty text")},
	}
	for _, r := range rows {
		if err := tab.Insert(r...); err != nil {
			t.Fatal(err)
		}
	}
	db.CreateTable(tab)
	tags := NewTable("tags", "code", "tag")
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

// indexIdentityQueries are scans the equality index may or may not
// accelerate; every one must return byte-identical results either way.
var indexIdentityQueries = []string{
	`SELECT * FROM items WHERE code = 'a1'`,
	`SELECT * FROM items WHERE 'a1' = code`,
	// Text literal '3' must also match the Number(3) cell (numeric
	// coercion) — served by the residual list.
	`SELECT * FROM items WHERE code = '3'`,
	`SELECT * FROM items WHERE code = 'true'`,
	`SELECT * FROM items WHERE code = ''`,
	`SELECT * FROM items WHERE code = 'missing'`,
	// Equality as the leftmost AND-conjunct, with more predicate behind it.
	`SELECT label FROM items WHERE code = 'a1' AND qty > 1`,
	`SELECT label FROM items WHERE code = '3' AND qty < 3 ORDER BY qty DESC`,
	// Multi-conjunct probes: the equality sits behind infallible conjuncts
	// (comparisons, LIKE, IS NULL, NOT), or two equalities intersect.
	`SELECT * FROM items WHERE qty > 1 AND code = 'a1'`,
	`SELECT * FROM items WHERE label LIKE '%e%' AND code = 'a1' AND qty < 6`,
	`SELECT * FROM items WHERE code IS NOT NULL AND code = '3'`,
	`SELECT * FROM items WHERE NOT (qty > 6) AND code = 'true'`,
	`SELECT * FROM items WHERE code = 'a1' AND label = 'first'`,
	`SELECT * FROM items WHERE code = 'a1' AND code = 'a1'`,
	`SELECT * FROM items WHERE code = 'a1' AND code = '3'`,
	// A fallible conjunct fences off every probe behind it: arithmetic may
	// error, so the trailing equality must not prune.
	`SELECT * FROM items WHERE qty + 1 > 2 AND code = 'a1'`,
	`SELECT * FROM items WHERE length(label) > 4 AND code = 'a1'`,
	// Shapes the index must decline: OR at the top, non-text literal.
	`SELECT * FROM items WHERE code = 'a1' OR qty = 4`,
	`SELECT * FROM items WHERE qty = 3`,
	`SELECT i.label FROM items i WHERE i.code = 'a1'`,
	`SELECT DISTINCT code FROM items WHERE code = 'a1'`,
	// Join-key probes: mixed-kind keys on both sides, literal probes on
	// either table, key conjuncts in both orders, self-joins.
	`SELECT i.label, t.tag FROM items i, tags t WHERE i.code = t.code`,
	`SELECT i.label, t.tag FROM items i, tags t WHERE t.code = i.code`,
	`SELECT i.label, t.tag FROM items i, tags t WHERE i.code = t.code AND t.tag = 'alpha'`,
	`SELECT i.label, t.tag FROM items i, tags t WHERE i.code = 'a1' AND i.code = t.code`,
	`SELECT i.label, t.tag FROM items i, tags t WHERE i.code = t.code AND i.qty > 2 ORDER BY t.tag`,
	`SELECT a.tag, b.tag FROM tags a, tags b WHERE a.code = b.code`,
	`SELECT i.label FROM items i, tags t WHERE t.tag = 'orphan'`,
	// A fallible conjunct fences join-key pruning too.
	`SELECT i.label, t.tag FROM items i, tags t WHERE i.qty * 2 > 3 AND i.code = t.code`,
}

// TestEqIndexResultIdentity proves the value index is invisible: every scan
// returns byte-identical results with the index enabled and disabled.
func TestEqIndexResultIdentity(t *testing.T) {
	for _, q := range indexIdentityQueries {
		t.Run(q, func(t *testing.T) {
			indexed, ierr := mixedDB(t).Query(q)
			eqIndexDisabled = true
			defer func() { eqIndexDisabled = false }()
			scanned, serr := mixedDB(t).Query(q)
			if (ierr == nil) != (serr == nil) {
				t.Fatalf("error divergence: indexed=%v scanned=%v", ierr, serr)
			}
			if ierr != nil {
				if ierr.Error() != serr.Error() {
					t.Fatalf("error message divergence: indexed=%v scanned=%v", ierr, serr)
				}
				return
			}
			if ir, sr := renderResult(indexed), renderResult(scanned); ir != sr {
				t.Fatalf("result divergence:\nindexed:\n%s\nfull scan:\n%s", ir, sr)
			}
		})
	}
}

// TestEqIndexErrorIdentity checks the pruning-safety argument: an error in a
// later conjunct must surface identically whether or not rows were pruned.
func TestEqIndexErrorIdentity(t *testing.T) {
	const q = `SELECT * FROM items WHERE code = 'a1' AND qty / 0 > 1`
	_, ierr := mixedDB(t).Query(q)
	eqIndexDisabled = true
	defer func() { eqIndexDisabled = false }()
	_, serr := mixedDB(t).Query(q)
	if ierr == nil || serr == nil || ierr.Error() != serr.Error() {
		t.Fatalf("error divergence: indexed=%v scanned=%v", ierr, serr)
	}
}

// TestEqIndexStaleRebuild proves inserts after a first indexed query are
// visible to the next one (the index rebuilds when row counts drift).
func TestEqIndexStaleRebuild(t *testing.T) {
	db := mixedDB(t)
	const q = `SELECT qty FROM items WHERE code = 'a1'`
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("before insert: %d rows, want 2", len(res.Rows))
	}
	tab, err := db.Table("items")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(Text("a1"), Number(9), Text("late insert")); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("after insert: %d rows, want 3", len(res.Rows))
	}
}

// TestEqIndexJoinErrorIdentity extends the pruning-safety argument to join
// scans: an error in a conjunct after the join key must surface identically
// whether or not inner rows were pruned, including which error comes first.
func TestEqIndexJoinErrorIdentity(t *testing.T) {
	for _, q := range []string{
		`SELECT * FROM items i, tags t WHERE i.code = t.code AND i.qty / 0 > 1`,
		`SELECT * FROM items i, tags t WHERE i.code = t.code AND t.tag + 1 > 0`,
		`SELECT * FROM items i, tags t WHERE t.tag = 'alpha' AND i.label - 1 > 0`,
	} {
		_, ierr := mixedDB(t).Query(q)
		prev := SetEqIndexDisabled(true)
		_, serr := mixedDB(t).Query(q)
		SetEqIndexDisabled(prev)
		if ierr == nil || serr == nil || ierr.Error() != serr.Error() {
			t.Fatalf("%s: error divergence: indexed=%v scanned=%v", q, ierr, serr)
		}
	}
}

// TestEqIndexJoinStaleRebuild proves inserts into either side of a join
// after a first indexed query are visible to the next one.
func TestEqIndexJoinStaleRebuild(t *testing.T) {
	db := mixedDB(t)
	const q = `SELECT i.label, t.tag FROM items i, tags t WHERE i.code = t.code AND t.tag = 'late'`
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("before insert: %d rows, want 0", len(res.Rows))
	}
	tags, err := db.Table("tags")
	if err != nil {
		t.Fatal(err)
	}
	if err := tags.Insert(Text("a1"), Text("late")); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("after inner insert: %d rows, want 2 (both a1 items)", len(res.Rows))
	}
	items, err := db.Table("items")
	if err != nil {
		t.Fatal(err)
	}
	if err := items.Insert(Text("a1"), Number(10), Text("later item")); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("after outer insert: %d rows, want 3", len(res.Rows))
	}
}

// TestSetEqIndexDisabled pins the exported toggle's previous-value return,
// which cross-package differential tests rely on to restore state.
func TestSetEqIndexDisabled(t *testing.T) {
	if prev := SetEqIndexDisabled(true); prev {
		t.Fatal("index reported disabled at test start")
	}
	if prev := SetEqIndexDisabled(false); !prev {
		t.Fatal("SetEqIndexDisabled(true) did not stick")
	}
}
