package integration

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"thalia/internal/xmldom"
)

func TestEffort(t *testing.T) {
	if EffortNone.Complexity() != 0 || EffortSmall.Complexity() != 1 ||
		EffortModerate.Complexity() != 2 || EffortLarge.Complexity() != 3 {
		t.Error("complexity mapping wrong")
	}
	if !strings.Contains(EffortModerate.String(), "moderate") {
		t.Errorf("EffortModerate = %q", EffortModerate)
	}
	if EffortNone.String() != "no code" {
		t.Errorf("EffortNone = %q", EffortNone)
	}
}

func TestRowKeyCanonical(t *testing.T) {
	a := Row{"b": "2", "a": "1"}
	b := Row{"a": "1", "b": "2"}
	if a.Key() != b.Key() {
		t.Error("key should be order-independent")
	}
	c := Row{"a": "1", "b": "3"}
	if a.Key() == c.Key() {
		t.Error("differing rows must differ in key")
	}
	wide := Row{}
	for i := 0; i < 20; i++ { // more fields than Key's stack buffer holds
		wide[fmt.Sprintf("f%02d", 19-i)] = strings.Repeat("v", i)
	}
	for _, r := range []Row{a, {}, {"": ""}, {"x": "a=b|c"}, wide} {
		keys := make([]string, 0, len(r))
		for k := range r {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		esc := strings.NewReplacer(`\`, `\\`, `|`, `\|`, `=`, `\=`)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = esc.Replace(k) + "=" + esc.Replace(r[k])
		}
		if got, want := r.Key(), strings.Join(parts, "|"); got != want {
			t.Errorf("Key(%v) = %q, want %q", r, got, want)
		}
	}
}

// rowKeySink keeps the compiler from dropping the measured Key call.
var rowKeySink string

// Row.Key builds the key in one buffer: its only allocation is the result.
func TestRowKeyAllocations(t *testing.T) {
	r := Row{"source": "cmu", "course": "15-415", "title": "Database Applications", "instructor": "Faloutsos", "time": "13:30-14:50"}
	if got := testing.AllocsPerRun(100, func() { rowKeySink = r.Key() }); got != 1 {
		t.Errorf("Row.Key allocated %.0f times per call, want 1", got)
	}
}

func TestMatchRows(t *testing.T) {
	want := []Row{{"course": "1"}, {"course": "2"}, {"course": "2"}}
	got := []Row{{"course": "2"}, {"course": "1"}, {"course": "3"}}
	missing, extra := MatchRows(want, got)
	if len(missing) != 1 || missing[0]["course"] != "2" {
		t.Errorf("missing = %v", missing)
	}
	if len(extra) != 1 || extra[0]["course"] != "3" {
		t.Errorf("extra = %v", extra)
	}
	missing, extra = MatchRows(want, append([]Row{{"course": "2"}}, want[:2]...))
	if len(missing) != 0 || len(extra) != 0 {
		t.Errorf("multiset match failed: missing=%v extra=%v", missing, extra)
	}
	// One field whose value spells a second field is not that row.
	missing, extra = MatchRows([]Row{{"course": "CS1", "title": "Databases"}},
		[]Row{{"course": "CS1|title=Databases"}})
	if len(missing) != 1 || len(extra) != 1 {
		t.Errorf("forged separator: missing=%v extra=%v, want one of each", missing, extra)
	}
}

func TestRowsXMLRoundTrip(t *testing.T) {
	rows := []Row{
		{"source": "cmu", "course": "15-415", "title": "DB"},
		{"source": "eth", "course": "251-0317", "title": "XML und Datenbanken"},
	}
	doc := RowsToXML(4, rows)
	if doc.Root.AttrValue("q") != "4" {
		t.Errorf("q attr = %q", doc.Root.AttrValue("q"))
	}
	// Round-trip through serialization too.
	reparsed, err := xmldom.ParseString(doc.Encode())
	if err != nil {
		t.Fatal(err)
	}
	back, err := RowsFromXML(reparsed)
	if err != nil {
		t.Fatal(err)
	}
	missing, extra := MatchRows(rows, back)
	if len(missing) != 0 || len(extra) != 0 {
		t.Errorf("round trip: missing=%v extra=%v", missing, extra)
	}
	if _, err := RowsFromXML(xmldom.MustParse("<other/>")); err == nil {
		t.Error("expected error for non-results document")
	}
}

// Property: MatchRows(x, x) is always a perfect match, and removing a row
// always produces exactly one missing.
func TestQuickMatchRows(t *testing.T) {
	f := func(vals []string) bool {
		rows := make([]Row, len(vals))
		for i, v := range vals {
			rows[i] = Row{"v": v}
		}
		if m, e := MatchRows(rows, rows); len(m) != 0 || len(e) != 0 {
			return false
		}
		if len(rows) == 0 {
			return true
		}
		m, e := MatchRows(rows, rows[1:])
		return len(m) == 1 && len(e) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
