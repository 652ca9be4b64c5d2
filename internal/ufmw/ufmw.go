// Package ufmw implements the reproduction's "full mediator" — the kind of
// system the paper hopes THALIA will induce the community to build. It
// resolves all twelve heterogeneities by combining the mapping library's
// kernels with XML navigation over the extracted testbed documents, and
// charges each answer from its own transformation catalog. It scores 12/12,
// at the price of the highest complexity score: the paper's ranking
// deliberately charges for every external function.
package ufmw

import (
	"fmt"
	"strconv"
	"strings"

	"thalia/internal/catalog"
	"thalia/internal/explain"
	"thalia/internal/integration"
	"thalia/internal/mapping"
	"thalia/internal/xmldom"
)

// Mediator is the full-mediation integration system. It is safe for
// concurrent use: the lexicon is immutable, every per-query evaluation keeps
// its state on the stack, and the shared testbed documents are only read.
type Mediator struct {
	lex *mapping.Lexicon
}

// New returns a mediator over the built-in testbed.
func New() *Mediator {
	return &Mediator{lex: mapping.NewGermanLexicon()}
}

// charges is the mediator's transformation catalog: each external function
// it needs, with its complexity under the paper's scoring function (1 low,
// 2 medium, 3 high). Every answer's FunctionUse list is read from it, and
// thalia-vet takes a query's complexity level from the hardest entry the
// answer charges.
var charges = map[string]int{
	"range_to_24h":               1, // case 2: meeting-time range to 24-hour form
	"flatten_union":              2, // case 3: string-plus-link union to its visible text
	"umfang_to_units":            3, // case 4: ETH Umfang notation to CMU-style units
	"translate_de_en":            3, // case 5: German term or value word to English
	"null_marker":                2, // case 6: missing data rendered explicitly
	"infer_prereq":               2, // case 7: entry-level status from a free-text comment
	"dual_null":                  3, // case 8: missing vs. inapplicable data
	"umd_time_room":              1, // case 9: room from Maryland's composite Time value
	"umd_section_teacher":        2, // case 10: instructor from a Maryland section title
	"split_instructors":          1, // case 10: one row per co-listed instructor
	"term_columns_to_instructor": 2, // case 11: per-term columns to one instructor
	"decompose_brown_title":      2, // case 12: title part of Brown's Title/Time column
}

// Name implements integration.System.
func (m *Mediator) Name() string { return "UF Full Mediator" }

// Description implements integration.System.
func (m *Mediator) Description() string {
	return "reference mediator resolving all twelve heterogeneities via the THALIA transformation catalog"
}

// courses returns the extracted course elements of a testbed source.
func courses(source string) ([]*xmldom.Element, error) {
	s, err := catalog.Get(source)
	if err != nil {
		return nil, err
	}
	doc, err := s.Document()
	if err != nil {
		return nil, err
	}
	return doc.Root.ChildElements(), nil
}

// use builds the FunctionUse list for the named catalog entries.
func use(names ...string) ([]integration.FunctionUse, error) {
	out := make([]integration.FunctionUse, len(names))
	for i, n := range names {
		c, ok := charges[n]
		if !ok {
			return nil, fmt.Errorf("ufmw: no transform %q", n)
		}
		out[i] = integration.FunctionUse{Name: n, Complexity: c}
	}
	return out, nil
}

// Answer implements integration.System.
func (m *Mediator) Answer(req integration.Request) (*integration.Answer, error) {
	rec := explain.FromContext(req.Context())
	if rec == nil {
		return m.answer(req) // untraced fast path
	}
	sp := rec.Begin(explain.KindAnswer, "UFMW.Answer")
	defer sp.End()
	for _, src := range []string{req.Reference, req.Challenge} {
		if src != "" {
			rec.Event(explain.KindDoc, src+".xml")
		}
	}
	ans, err := m.answer(req)
	if err != nil {
		return nil, err
	}
	for _, fn := range ans.Functions {
		rec.Event(explain.KindTransform, fn.Name,
			explain.A("complexity", strconv.Itoa(fn.Complexity)))
	}
	sp.SetRows(-1, len(ans.Rows))
	return ans, nil
}

// answer dispatches to the per-query resolution procedures.
func (m *Mediator) answer(req integration.Request) (*integration.Answer, error) {
	switch req.QueryID {
	case 1:
		return m.q1()
	case 2:
		return m.q2()
	case 3:
		return m.q3()
	case 4:
		return m.q4()
	case 5:
		return m.q5()
	case 6:
		return m.q6()
	case 7:
		return m.q7()
	case 8:
		return m.q8()
	case 9:
		return m.q9()
	case 10:
		return m.q10()
	case 11:
		return m.q11()
	case 12:
		return m.q12()
	default:
		return nil, fmt.Errorf("ufmw: unknown benchmark query %d", req.QueryID)
	}
}

// splitLecturers splits CMU's set-valued Lecturer field ("Song/Wing").
func splitLecturers(v string) []string {
	parts := strings.Split(v, "/")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// brownTitleOf reconstructs the course title from Brown's union-typed,
// composite Title column: the hyperlink's text when present, else the title
// part of the composite string.
func brownTitleOf(title *xmldom.Element) string {
	if a := title.Child("a"); a != nil {
		return a.Text()
	}
	return mapping.DecomposeBrownTitle(title.DeepText()).Title
}

func (m *Mediator) q1() (*integration.Answer, error) {
	var rows []integration.Row
	gs, err := courses("gatech")
	if err != nil {
		return nil, err
	}
	for _, c := range gs {
		if c.ChildText("Instructor") == "Mark" {
			rows = append(rows, integration.Row{
				"source": "gatech", "course": c.ChildText("CourseNum"), "instructor": "Mark",
			})
		}
	}
	cs, err := courses("cmu")
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		for _, name := range splitLecturers(c.ChildText("Lecturer")) {
			if name == "Mark" {
				rows = append(rows, integration.Row{
					"source": "cmu", "course": c.ChildText("CourseNumber"), "instructor": "Mark",
				})
			}
		}
	}
	// Pure rename mapping: Instructor ↔ Lecturer.
	return &integration.Answer{Rows: rows, Effort: integration.EffortNone}, nil
}

func (m *Mediator) q2() (*integration.Answer, error) {
	fns, err := use("range_to_24h")
	if err != nil {
		return nil, err
	}
	var rows []integration.Row
	cs, err := courses("cmu")
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		title := c.Child("CourseTitle").Text()
		t24, err := mapping.RangeTo24(c.ChildText("Time"))
		if err != nil {
			return nil, err
		}
		if strings.HasPrefix(t24, "13:30") && strings.Contains(strings.ToLower(title), "database") {
			rows = append(rows, integration.Row{
				"source": "cmu", "course": c.ChildText("CourseNumber"), "title": title, "time": t24,
			})
		}
	}
	us, err := courses("umass")
	if err != nil {
		return nil, err
	}
	for _, c := range us {
		t24, err := mapping.RangeTo24(c.ChildText("Time"))
		if err != nil {
			return nil, err
		}
		title := c.ChildText("Name")
		if strings.HasPrefix(t24, "13:30") && strings.Contains(strings.ToLower(title), "database") {
			rows = append(rows, integration.Row{
				"source": "umass", "course": c.ChildText("Number"), "title": title, "time": t24,
			})
		}
	}
	return &integration.Answer{Rows: rows, Effort: integration.EffortSmall, Functions: fns}, nil
}

func (m *Mediator) q3() (*integration.Answer, error) {
	fns, err := use("flatten_union", "decompose_brown_title")
	if err != nil {
		return nil, err
	}
	var rows []integration.Row
	us, err := courses("umd")
	if err != nil {
		return nil, err
	}
	for _, c := range us {
		name := c.ChildText("CourseName")
		if strings.Contains(name, "Data Structures") {
			rows = append(rows, integration.Row{
				"source": "umd", "course": c.ChildText("CourseNum"), "title": name,
			})
		}
	}
	bs, err := courses("brown")
	if err != nil {
		return nil, err
	}
	for _, c := range bs {
		title := brownTitleOf(c.Child("Title"))
		if strings.Contains(title, "Data Structures") {
			rows = append(rows, integration.Row{
				"source": "brown", "course": c.ChildText("CrsNum"), "title": title,
			})
		}
	}
	return &integration.Answer{Rows: rows, Effort: integration.EffortModerate, Functions: fns}, nil
}

func (m *Mediator) q4() (*integration.Answer, error) {
	fns, err := use("umfang_to_units", "translate_de_en")
	if err != nil {
		return nil, err
	}
	var rows []integration.Row
	cs, err := courses("cmu")
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		title := c.Child("CourseTitle").Text()
		units := c.ChildText("Units")
		var u int
		fmt.Sscanf(units, "%d", &u)
		if u > 10 && strings.Contains(title, "Database") {
			rows = append(rows, integration.Row{
				"source": "cmu", "course": c.ChildText("CourseNumber"), "title": title, "units": units,
			})
		}
	}
	es, err := courses("eth")
	if err != nil {
		return nil, err
	}
	for _, c := range es {
		title := c.ChildText("Titel")
		um, err := mapping.ParseUmfang(c.ChildText("Umfang"))
		if err != nil {
			return nil, fmt.Errorf("ufmw: q4: %w", err)
		}
		if um.Units() > 10 && m.lex.ValueContains(title, "database") {
			rows = append(rows, integration.Row{
				"source": "eth", "course": c.ChildText("Nummer"), "title": title,
				"units": fmt.Sprintf("%d", um.Units()),
			})
		}
	}
	return &integration.Answer{Rows: rows, Effort: integration.EffortLarge, Functions: fns}, nil
}

func (m *Mediator) q5() (*integration.Answer, error) {
	fns, err := use("translate_de_en")
	if err != nil {
		return nil, err
	}
	var rows []integration.Row
	us, err := courses("umd")
	if err != nil {
		return nil, err
	}
	for _, c := range us {
		name := c.ChildText("CourseName")
		if strings.Contains(name, "Database") {
			rows = append(rows, integration.Row{
				"source": "umd", "course": c.ChildText("CourseNum"), "title": name,
			})
		}
	}
	es, err := courses("eth")
	if err != nil {
		return nil, err
	}
	for _, c := range es {
		title := c.ChildText("Titel")
		if m.lex.ValueContains(title, "database") {
			rows = append(rows, integration.Row{
				"source": "eth", "course": c.ChildText("Nummer"), "title": title,
			})
		}
	}
	return &integration.Answer{Rows: rows, Effort: integration.EffortLarge, Functions: fns}, nil
}

func (m *Mediator) q6() (*integration.Answer, error) {
	fns, err := use("null_marker")
	if err != nil {
		return nil, err
	}
	var rows []integration.Row
	ts, err := courses("toronto")
	if err != nil {
		return nil, err
	}
	for _, c := range ts {
		if !strings.Contains(c.ChildText("title"), "Verification") {
			continue
		}
		book := mapping.Missing()
		if c.HasChild("text") && strings.TrimSpace(c.ChildText("text")) != "" {
			book = mapping.Present(c.ChildText("text"))
		}
		rows = append(rows, integration.Row{
			"source": "toronto", "course": c.ChildText("code"), "textbook": book.Marker(),
		})
	}
	cs, err := courses("cmu")
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		if !strings.Contains(c.Child("CourseTitle").Text(), "Verification") {
			continue
		}
		book := mapping.Missing()
		if strings.TrimSpace(c.ChildText("Textbook")) != "" {
			book = mapping.Present(c.ChildText("Textbook"))
		}
		rows = append(rows, integration.Row{
			"source": "cmu", "course": c.ChildText("CourseNumber"), "textbook": book.Marker(),
		})
	}
	return &integration.Answer{Rows: rows, Effort: integration.EffortModerate, Functions: fns}, nil
}

func (m *Mediator) q7() (*integration.Answer, error) {
	fns, err := use("infer_prereq")
	if err != nil {
		return nil, err
	}
	var rows []integration.Row
	us, err := courses("umich")
	if err != nil {
		return nil, err
	}
	for _, c := range us {
		title := c.ChildText("title")
		if strings.Contains(title, "Database") && mapping.InferEntryLevel(c.ChildText("prerequisite"), "") {
			rows = append(rows, integration.Row{
				"source": "umich", "course": c.ChildText("number"), "title": title,
			})
		}
	}
	cs, err := courses("cmu")
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		title := c.Child("CourseTitle")
		comment := title.ChildText("Comment")
		if strings.Contains(title.Text(), "Database") && mapping.InferEntryLevel("", comment) {
			rows = append(rows, integration.Row{
				"source": "cmu", "course": c.ChildText("CourseNumber"), "title": title.Text(),
			})
		}
	}
	return &integration.Answer{Rows: rows, Effort: integration.EffortModerate, Functions: fns}, nil
}

func (m *Mediator) q8() (*integration.Answer, error) {
	fns, err := use("dual_null", "translate_de_en")
	if err != nil {
		return nil, err
	}
	var rows []integration.Row
	gs, err := courses("gatech")
	if err != nil {
		return nil, err
	}
	for _, c := range gs {
		title := c.ChildText("Title")
		restrict := c.ChildText("Restrictions")
		if strings.Contains(title, "Database") && mapping.OpenTo(restrict, "JR") {
			rows = append(rows, integration.Row{
				"source": "gatech", "course": c.ChildText("CourseNum"), "title": title,
				"restriction": restrict,
			})
		}
	}
	es, err := courses("eth")
	if err != nil {
		return nil, err
	}
	for _, c := range es {
		title := c.ChildText("Titel")
		if m.lex.ValueContains(title, "database") {
			rows = append(rows, integration.Row{
				"source": "eth", "course": c.ChildText("Nummer"), "title": title,
				"restriction": mapping.Inapplicable().Marker(),
			})
		}
	}
	return &integration.Answer{Rows: rows, Effort: integration.EffortLarge, Functions: fns}, nil
}

func (m *Mediator) q9() (*integration.Answer, error) {
	fns, err := use("umd_time_room", "decompose_brown_title")
	if err != nil {
		return nil, err
	}
	var rows []integration.Row
	bs, err := courses("brown")
	if err != nil {
		return nil, err
	}
	for _, c := range bs {
		title := brownTitleOf(c.Child("Title"))
		if strings.Contains(title, "Software Engineering") {
			rows = append(rows, integration.Row{
				"source": "brown", "course": c.ChildText("CrsNum"), "room": c.ChildText("Room"),
			})
		}
	}
	us, err := courses("umd")
	if err != nil {
		return nil, err
	}
	for _, c := range us {
		if !strings.Contains(c.ChildText("CourseName"), "Software Engineering") {
			continue
		}
		for _, sec := range c.ChildrenNamed("Section") {
			tm, err := mapping.ParseUMDTime(sec.ChildText("Time"))
			if err != nil {
				return nil, fmt.Errorf("ufmw: q9: %w", err)
			}
			rows = append(rows, integration.Row{
				"source": "umd", "course": c.ChildText("CourseNum"), "room": tm.Room,
			})
		}
	}
	return &integration.Answer{Rows: rows, Effort: integration.EffortModerate, Functions: fns}, nil
}

func (m *Mediator) q10() (*integration.Answer, error) {
	fns, err := use("umd_section_teacher", "split_instructors")
	if err != nil {
		return nil, err
	}
	var rows []integration.Row
	cs, err := courses("cmu")
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		if !strings.Contains(c.Child("CourseTitle").Text(), "Software") {
			continue
		}
		for _, name := range splitLecturers(c.ChildText("Lecturer")) {
			rows = append(rows, integration.Row{
				"source": "cmu", "course": c.ChildText("CourseNumber"), "instructor": name,
			})
		}
	}
	us, err := courses("umd")
	if err != nil {
		return nil, err
	}
	for _, c := range us {
		if !strings.Contains(c.ChildText("CourseName"), "Software") {
			continue
		}
		for _, sec := range c.ChildrenNamed("Section") {
			st, err := mapping.ParseUMDSection(sec.ChildText("SectionTitle"))
			if err != nil {
				return nil, fmt.Errorf("ufmw: q10: %w", err)
			}
			rows = append(rows, integration.Row{
				"source": "umd", "course": c.ChildText("CourseNum"), "instructor": st.Teacher,
			})
		}
	}
	return &integration.Answer{Rows: rows, Effort: integration.EffortModerate, Functions: fns}, nil
}

func (m *Mediator) q11() (*integration.Answer, error) {
	fns, err := use("term_columns_to_instructor")
	if err != nil {
		return nil, err
	}
	var rows []integration.Row
	cs, err := courses("cmu")
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		if !strings.Contains(c.Child("CourseTitle").Text(), "Database") {
			continue
		}
		for _, name := range splitLecturers(c.ChildText("Lecturer")) {
			rows = append(rows, integration.Row{
				"source": "cmu", "course": c.ChildText("CourseNumber"), "instructor": name,
			})
		}
	}
	us, err := courses("ucsd")
	if err != nil {
		return nil, err
	}
	for _, c := range us {
		if !strings.Contains(c.ChildText("Title"), "Database") {
			continue
		}
		// The term columns hold the instructor information (case 11).
		for _, term := range []string{"Fall2003", "Winter2004"} {
			name := c.ChildText(term)
			if name == "" || name == "(not offered)" {
				continue
			}
			rows = append(rows, integration.Row{
				"source": "ucsd", "course": c.ChildText("Number"), "instructor": name,
			})
		}
	}
	return &integration.Answer{Rows: rows, Effort: integration.EffortModerate, Functions: fns}, nil
}

func (m *Mediator) q12() (*integration.Answer, error) {
	fns, err := use("decompose_brown_title", "range_to_24h")
	if err != nil {
		return nil, err
	}
	var rows []integration.Row
	cs, err := courses("cmu")
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		title := c.Child("CourseTitle").Text()
		if !strings.Contains(title, "Computer Networks") {
			continue
		}
		t24, err := mapping.RangeTo24(c.ChildText("Time"))
		if err != nil {
			return nil, err
		}
		rows = append(rows, integration.Row{
			"source": "cmu", "course": c.ChildText("CourseNumber"), "title": title,
			"day": c.ChildText("Day"), "time": t24,
		})
	}
	bs, err := courses("brown")
	if err != nil {
		return nil, err
	}
	for _, c := range bs {
		bt := mapping.DecomposeBrownTitle(c.Child("Title").DeepText())
		if !strings.Contains(bt.Title, "Computer Networks") {
			continue
		}
		t24, err := mapping.RangeTo24(bt.Time)
		if err != nil {
			return nil, err
		}
		rows = append(rows, integration.Row{
			"source": "brown", "course": c.ChildText("CrsNum"), "title": bt.Title,
			"day": mapping.CanonicalDays(bt.Days), "time": t24,
		})
	}
	return &integration.Answer{Rows: rows, Effort: integration.EffortModerate, Functions: fns}, nil
}
