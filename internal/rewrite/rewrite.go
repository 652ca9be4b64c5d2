// Package rewrite implements a declarative mediation layer over the THALIA
// testbed: a global course schema, per-source mapping tables (path +
// transform per global field), and a query engine that answers conjunctive
// global queries by decomposing them into per-source evaluations and
// merging the results — the processing model the paper tacitly assumes of
// an integration system ("breaking it into subqueries, which can be
// answered separately using the extracted XML data from the underlying
// sources, and merging the results into an integrated whole").
//
// Unlike internal/ufmw, which hand-codes each benchmark query, this
// mediator is configured entirely by data: the same engine answers all
// twelve queries from twelve GlobalQuery values plus the per-source
// mapping tables in mappings.go.
package rewrite

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"thalia/internal/catalog"
	"thalia/internal/explain"
	"thalia/internal/mapping"
	"thalia/internal/xmldom"
)

// Transform converts a source element holding one mapped field into zero or
// more global string values. Element-level (rather than string-level)
// transforms let mappings see structure: anchors inside Brown's titles,
// comments nested in CMU's titles, Maryland's section rows.
type Transform struct {
	Name string
	// Complexity is the THALIA scoring weight (0 for plain copies).
	Complexity int
	Fn         func(el *xmldom.Element) ([]string, error)
}

// FieldMapping computes one global field from a source course element.
type FieldMapping struct {
	// Field is the global field name ("instructor", "time", ...).
	Field string
	// Path is a slash path of child element names relative to the course
	// element; every matching element contributes values. Empty means the
	// course element itself.
	Path string
	// Transform names a registered transform; empty means "text copy".
	Transform string
	// MissingAsEmpty maps an absent path to one empty value instead of no
	// value — the "data missing but could be present" NULL (case 6).
	MissingAsEmpty bool
}

// SourceMapping is the mediation table for one source.
type SourceMapping struct {
	Source string
	// Record is the course element name under the source root.
	Record string
	Fields []FieldMapping
	// Inapplicable lists global fields whose concept does not exist in
	// this source's world (case 8): queries over them succeed vacuously
	// and results carry the explicit inapplicable marker.
	Inapplicable []string
}

func (sm *SourceMapping) isInapplicable(field string) bool {
	for _, f := range sm.Inapplicable {
		if f == field {
			return true
		}
	}
	return false
}

// Op is a predicate operator for global queries.
type Op string

// Supported predicate operators.
const (
	// OpEq is exact string equality.
	OpEq Op = "eq"
	// OpContains is case-sensitive substring containment (the benchmark's
	// '%…%' semantics).
	OpContains Op = "contains"
	// OpContainsFold is case-insensitive containment.
	OpContainsFold Op = "contains-fold"
	// OpContainsTranslated matches an English term against values in any
	// language via the German lexicon (case 5).
	OpContainsTranslated Op = "contains-translated"
	// OpStartsWith is prefix match.
	OpStartsWith Op = "starts-with"
	// OpGt is numeric greater-than.
	OpGt Op = "gt"
	// OpOpenTo tests US student-classification restrictions (case 8):
	// a course with no classification codes admits everyone.
	OpOpenTo Op = "open-to"
)

// Predicate is one conjunct of a global query.
type Predicate struct {
	Field string
	Op    Op
	Value string
}

// GlobalQuery is a conjunctive query over the global schema.
type GlobalQuery struct {
	// Select lists the global fields to return (besides source and course).
	Select []string
	// Where conjuncts must all hold.
	Where []Predicate
	// Sources restricts evaluation to the named sources.
	Sources []string
}

// Mediator answers global queries over mapped sources. A Mediator is safe
// for concurrent use: it is read-only after NewMediator, and each Answer
// call tallies transform usage in a ledger of its own.
type Mediator struct {
	transforms map[string]*Transform
	mappings   map[string]*SourceMapping
	lex        *mapping.Lexicon
}

// ledger tallies the transforms one evaluation invoked. Each Answer call
// gets its own, so concurrent evaluations never share mutable state.
type ledger map[string]int

// NewMediator returns a mediator with the standard transform catalog and
// the built-in testbed mapping tables.
func NewMediator() *Mediator {
	m := &Mediator{
		transforms: map[string]*Transform{},
		mappings:   map[string]*SourceMapping{},
		lex:        mapping.NewGermanLexicon(),
	}
	for _, t := range standardTransforms() {
		m.transforms[t.Name] = t
	}
	for _, sm := range testbedMappings() {
		m.mappings[sm.Source] = sm
	}
	return m
}

// Mapping returns the mediation table for a source, if any.
func (m *Mediator) Mapping(source string) (*SourceMapping, bool) {
	sm, ok := m.mappings[source]
	return sm, ok
}

// Mappings returns every source mapping table, sorted by source name.
// Static analysis uses it to cross-check each table's record and field
// paths against the source's published schema.
func (m *Mediator) Mappings() []*SourceMapping {
	names := make([]string, 0, len(m.mappings))
	for name := range m.mappings {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*SourceMapping, len(names))
	for i, name := range names {
		out[i] = m.mappings[name]
	}
	return out
}

// HasTransform reports whether a transform with the given name is
// registered in the mediator's catalog.
func (m *Mediator) HasTransform(name string) bool {
	_, ok := m.transforms[name]
	return ok
}

// Row is one merged global result row.
type Row map[string]string

// charged filters a ledger down to the registered transforms with non-zero
// complexity — the entries THALIA's scoring function charges for.
func (m *Mediator) charged(used ledger) map[string]int {
	out := map[string]int{}
	for name := range used {
		if t, ok := m.transforms[name]; ok && t.Complexity > 0 {
			out[t.Name] = t.Complexity
		}
	}
	return out
}

// Answer evaluates a global query: it decomposes the query into one
// evaluation per mapped source, applies each source's mapping table, and
// merges the per-source rows. Alongside the rows it returns the charged
// transforms this call invoked (name → complexity), the mediator's
// integration effort for the query; each call tallies them in a ledger of
// its own. A non-nil rec records per-source mapping spans and a merge
// event.
func (m *Mediator) Answer(q GlobalQuery, rec *explain.Recorder) ([]Row, map[string]int, error) {
	used := ledger{}
	sources := q.Sources
	if len(sources) == 0 {
		for name := range m.mappings {
			sources = append(sources, name)
		}
		sort.Strings(sources)
	}
	var out []Row
	for _, name := range sources {
		sm, ok := m.mappings[name]
		if !ok {
			return nil, nil, fmt.Errorf("rewrite: no mapping for source %q", name)
		}
		var ssp *explain.Span
		if rec != nil {
			ssp = rec.Begin(explain.KindMapping, "mapping "+name)
			rec.Event(explain.KindDoc, name+".xml")
		}
		rows, err := m.answerSource(sm, q, used)
		if err != nil {
			return nil, nil, fmt.Errorf("rewrite: source %s: %w", name, err)
		}
		if ssp != nil {
			ssp.SetRows(-1, len(rows))
			ssp.End()
		}
		out = append(out, rows...)
	}
	if rec != nil {
		rec.Event(explain.KindMerge,
			fmt.Sprintf("%d sources -> %d rows", len(sources), len(out)))
	}
	return out, m.charged(used), nil
}

// answerSource evaluates the query against one source.
func (m *Mediator) answerSource(sm *SourceMapping, q GlobalQuery, used ledger) ([]Row, error) {
	src, err := catalog.Get(sm.Source)
	if err != nil {
		return nil, err
	}
	doc, err := src.Document()
	if err != nil {
		return nil, err
	}
	// Only the fields the query touches are computed: transforms for
	// unrelated fields are neither run nor charged.
	needed := map[string]bool{"course": true}
	for _, f := range q.Select {
		needed[f] = true
	}
	for _, p := range q.Where {
		needed[p.Field] = true
	}
	var out []Row
	for _, course := range doc.Root.ChildrenNamed(sm.Record) {
		vals, err := m.fieldValues(sm, course, needed, used)
		if err != nil {
			return nil, err
		}
		keep, err := m.courseSatisfies(sm, vals, q.Where, used)
		if err != nil {
			return nil, err
		}
		if !keep {
			continue
		}
		out = append(out, m.expand(sm, vals, q, used)...)
	}
	return out, nil
}

// fieldValues computes the needed global fields of one course.
func (m *Mediator) fieldValues(sm *SourceMapping, course *xmldom.Element, needed map[string]bool, used ledger) (map[string][]string, error) {
	vals := map[string][]string{}
	for _, fm := range sm.Fields {
		if !needed[fm.Field] {
			continue
		}
		els := resolvePath(course, fm.Path)
		if len(els) == 0 {
			if fm.MissingAsEmpty {
				vals[fm.Field] = append(vals[fm.Field], "")
			}
			continue
		}
		for _, el := range els {
			vs, err := m.apply(fm, el, used)
			if err != nil {
				return nil, err
			}
			vals[fm.Field] = append(vals[fm.Field], vs...)
		}
	}
	return vals, nil
}

func (m *Mediator) apply(fm FieldMapping, el *xmldom.Element, used ledger) ([]string, error) {
	if fm.Transform == "" {
		return []string{el.Text()}, nil
	}
	t, ok := m.transforms[fm.Transform]
	if !ok {
		return nil, fmt.Errorf("unknown transform %q", fm.Transform)
	}
	used[t.Name]++
	return t.Fn(el)
}

// courseSatisfies applies the conjunction with existential semantics over
// multi-valued fields. A predicate over a field the source declares
// inapplicable holds vacuously; the field renders as the inapplicable
// marker (the dual-NULL treatment of case 8).
func (m *Mediator) courseSatisfies(sm *SourceMapping, vals map[string][]string, where []Predicate, used ledger) (bool, error) {
	for _, p := range where {
		if sm.isInapplicable(p.Field) {
			// Vacuously satisfied: the concept cannot be present (case 8).
			used["dual-null"]++
			continue
		}
		ok := false
		for _, v := range vals[p.Field] {
			match, err := m.eval(p, v, used)
			if err != nil {
				return false, err
			}
			if match {
				ok = true
				break
			}
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

func (m *Mediator) eval(p Predicate, v string, used ledger) (bool, error) {
	switch p.Op {
	case OpEq:
		return v == p.Value, nil
	case OpContains:
		return strings.Contains(v, p.Value), nil
	case OpContainsFold:
		return strings.Contains(strings.ToLower(v), strings.ToLower(p.Value)), nil
	case OpContainsTranslated:
		used["lexicon-translate"]++
		return m.lex.ValueContains(v, p.Value), nil
	case OpStartsWith:
		return strings.HasPrefix(v, p.Value), nil
	case OpGt:
		n, err1 := strconv.ParseFloat(strings.TrimSpace(v), 64)
		bound, err2 := strconv.ParseFloat(p.Value, 64)
		if err1 != nil || err2 != nil {
			return false, nil
		}
		return n > bound, nil
	case OpOpenTo:
		return mapping.OpenTo(v, p.Value), nil
	default:
		return false, fmt.Errorf("unknown predicate operator %q", p.Op)
	}
}

// expand emits result rows for one matching course: single-valued fields
// fill in place; each selected multi-valued field expands to one row per
// value, with predicates on that same field re-applied to the expanded
// value.
func (m *Mediator) expand(sm *SourceMapping, vals map[string][]string, q GlobalQuery, used ledger) []Row {
	base := Row{"source": sm.Source}
	if cn := vals["course"]; len(cn) > 0 {
		base["course"] = cn[0]
	}
	rows := []Row{base}
	for _, field := range q.Select {
		if field == "course" {
			continue
		}
		if sm.isInapplicable(field) {
			used["dual-null"]++
			for _, r := range rows {
				r[field] = mapping.Inapplicable().Marker()
			}
			continue
		}
		fvals := vals[field]
		// Keep only values satisfying this field's own predicates, so a
		// selected multi-valued field (e.g. instructor = "Mark") expands
		// to matching values only.
		var kept []string
		for _, v := range fvals {
			ok := true
			for _, p := range q.Where {
				if p.Field != field {
					continue
				}
				match, err := m.eval(p, v, used)
				if err != nil || !match {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, v)
			}
		}
		switch len(kept) {
		case 0:
			for _, r := range rows {
				r[field] = ""
			}
		case 1:
			for _, r := range rows {
				r[field] = kept[0]
			}
		default:
			var next []Row
			for _, r := range rows {
				for _, v := range kept {
					nr := Row{}
					for k, val := range r {
						nr[k] = val
					}
					nr[field] = v
					next = append(next, nr)
				}
			}
			rows = next
		}
	}
	return rows
}

// resolvePath returns the elements at a slash path below el; empty path
// resolves to el itself.
func resolvePath(el *xmldom.Element, path string) []*xmldom.Element {
	if path == "" {
		return []*xmldom.Element{el}
	}
	// Nearly every mapping path is a single step; skip the Split and the
	// intermediate slices for those.
	if !strings.Contains(path, "/") {
		return el.ChildrenNamed(path)
	}
	cur := []*xmldom.Element{el}
	for _, step := range strings.Split(path, "/") {
		var next []*xmldom.Element
		for _, e := range cur {
			next = append(next, e.ChildrenNamed(step)...)
		}
		cur = next
	}
	return cur
}
