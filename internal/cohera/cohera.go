// Package cohera models the Cohera Content Integration System (the
// commercial descendant of Mariposa) as the paper describes it in Section
// 4.2: a federated DBMS with a flexible "web site wrapper" that constructs
// records from web pages, local and global schemas connected by mapping
// views "with the power of Postgres", and user-defined functions for value
// transformations.
//
// Cohera was bought in 2001 and could not be run; the paper *projects* its
// per-query behaviour, which this package implements faithfully on top of
// the minidb relational engine:
//
//	Q1, Q6, Q9, Q10 — answered with no custom code (schema mapping and
//	                  Postgres NULL support alone);
//	Q2              — a small user-defined function (clock conversion);
//	Q3, Q7, Q11, Q12 — moderate user-defined functions;
//	Q4, Q5, Q8      — declined ("no easy way to deal with this, without
//	                  large amounts of custom code").
//
// Query 8 fails for a structural reason the paper highlights: Postgres (and
// hence Cohera) has exactly one NULL, so it cannot distinguish "missing"
// from "inapplicable".
package cohera

import (
	"fmt"
	"strings"
	"sync"

	"thalia/internal/catalog"
	"thalia/internal/explain"
	"thalia/internal/integration"
	"thalia/internal/mapping"
	"thalia/internal/minidb"
	"thalia/internal/xmldom"
)

// System is the Cohera model. It is safe for concurrent use: the testbed is
// shredded into relations exactly once behind the build mutex, and queries
// only read the shredded tables.
//
// The build is all-or-nothing: s.db is published only after shredding and
// view creation fully succeed, and a build error is returned but never
// cached — so a transient source failure (a fault-injected catalog, say)
// fails that call alone instead of leaving a partially-shredded database
// or a permanently poisoned system behind.
type System struct {
	mu sync.Mutex
	db *minidb.DB
	// shred is a test seam for the regression suite's fail-once builds;
	// nil means shredAll.
	shred func(*minidb.DB) error
}

// New returns a Cohera instance over the built-in testbed.
func New() *System { return &System{} }

// Name implements integration.System.
func (s *System) Name() string { return "Cohera" }

// Description implements integration.System.
func (s *System) Description() string {
	return "federated DBMS: web-site wrapper shreds sources into relations; local-to-global mapping views with Postgres-style UDFs"
}

// DB exposes the underlying engine (for the ablation benchmarks).
func (s *System) DB() (*minidb.DB, error) {
	return s.build()
}

// build shreds the testbed sources Cohera federates into relations and
// registers the mapping views and UDFs. Only a fully built database is
// cached; on error nothing is published and the next call rebuilds.
func (s *System) build() (*minidb.DB, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.db != nil {
		return s.db, nil
	}
	shred := s.shred
	if shred == nil {
		shred = shredAll
	}
	db := minidb.NewDB()
	if err := shred(db); err != nil {
		return nil, err
	}
	registerUDFs(db)
	if err := createViews(db); err != nil {
		return nil, err
	}
	s.db = db
	return db, nil
}

// text wraps a trimmed string value, mapping "" to SQL NULL — the wrapper's
// convention for absent fields, which gives Cohera its (single-flavor)
// NULL story for query 6.
func text(v string) minidb.Value {
	v = strings.TrimSpace(v)
	if v == "" {
		return minidb.Null
	}
	return minidb.Text(v)
}

// shredAll builds one or more relations per federated source from the
// extracted catalog documents. The "very flexible" record construction the
// paper credits to Cohera's web wrapper shows up here: Maryland's nested
// sections become a child relation with teacher and room split out, and
// CMU's set-valued Lecturer field becomes a one-row-per-instructor
// relation.
func shredAll(db *minidb.DB) error {
	docs := map[string]*xmldom.Document{}
	for _, name := range []string{"gatech", "cmu", "umd", "brown", "toronto", "umich", "ucsd", "umass"} {
		src, err := catalog.Get(name)
		if err != nil {
			return err
		}
		doc, err := src.Document()
		if err != nil {
			return err
		}
		docs[name] = doc
	}

	gatech := minidb.NewTable("gatech", "crn", "num", "title", "instructor", "meets", "room", "restrictions")
	for _, c := range docs["gatech"].Root.ChildrenNamed("Course") {
		if err := gatech.Insert(
			text(c.ChildText("CRN")), text(c.ChildText("CourseNum")), text(c.ChildText("Title")),
			text(c.ChildText("Instructor")), text(c.ChildText("Time")), text(c.ChildText("Room")),
			text(c.ChildText("Restrictions")),
		); err != nil {
			return err
		}
	}
	db.CreateTable(gatech)

	cmu := minidb.NewTable("cmu", "num", "title", "comment", "units", "lecturer", "day", "meets", "room", "textbook")
	cmuLect := minidb.NewTable("cmu_lecturers", "num", "name")
	for _, c := range docs["cmu"].Root.ChildrenNamed("Course") {
		titleEl := c.Child("CourseTitle")
		num := c.ChildText("CourseNumber")
		if err := cmu.Insert(
			text(num), text(titleEl.Text()), text(titleEl.ChildText("Comment")),
			text(c.ChildText("Units")), text(c.ChildText("Lecturer")), text(c.ChildText("Day")),
			text(c.ChildText("Time")), text(c.ChildText("Room")), text(c.ChildText("Textbook")),
		); err != nil {
			return err
		}
		for _, name := range strings.Split(c.ChildText("Lecturer"), "/") {
			if name = strings.TrimSpace(name); name != "" {
				if err := cmuLect.Insert(text(num), text(name)); err != nil {
					return err
				}
			}
		}
	}
	db.CreateTable(cmu)
	db.CreateTable(cmuLect)

	umd := minidb.NewTable("umd", "num", "name", "notes")
	umdSec := minidb.NewTable("umd_sections", "num", "section", "teacher", "days", "meets", "room")
	for _, c := range docs["umd"].Root.ChildrenNamed("Course") {
		num := c.ChildText("CourseNum")
		if err := umd.Insert(text(num), text(c.ChildText("CourseName")), text(c.ChildText("Notes"))); err != nil {
			return err
		}
		for _, sec := range c.ChildrenNamed("Section") {
			st, err := mapping.ParseUMDSection(sec.ChildText("SectionTitle"))
			if err != nil {
				return fmt.Errorf("cohera: wrap umd: %w", err)
			}
			tm, err := mapping.ParseUMDTime(sec.ChildText("Time"))
			if err != nil {
				return fmt.Errorf("cohera: wrap umd: %w", err)
			}
			if err := umdSec.Insert(
				text(num), text(st.Num), text(st.Teacher), text(tm.Days), text(tm.Time), text(tm.Room),
			); err != nil {
				return err
			}
		}
	}
	db.CreateTable(umd)
	db.CreateTable(umdSec)

	brown := minidb.NewTable("brown", "num", "instructor", "title", "room")
	for _, c := range docs["brown"].Root.ChildrenNamed("Course") {
		title := c.Child("Title")
		// The wrapper flattens the union-typed Title column to its visible
		// text; resolving it further is what the Q3/Q12 UDFs are for.
		if err := brown.Insert(
			text(c.ChildText("CrsNum")), text(c.Child("Instructor").DeepText()),
			text(title.DeepText()), text(c.ChildText("Room")),
		); err != nil {
			return err
		}
	}
	db.CreateTable(brown)

	toronto := minidb.NewTable("toronto", "code", "title", "instructor", "book")
	for _, c := range docs["toronto"].Root.ChildrenNamed("course") {
		if err := toronto.Insert(
			text(c.ChildText("code")), text(c.ChildText("title")),
			text(c.ChildText("instructor")), text(c.ChildText("text")),
		); err != nil {
			return err
		}
	}
	db.CreateTable(toronto)

	umich := minidb.NewTable("umich", "num", "title", "prerequisite", "instructor")
	for _, c := range docs["umich"].Root.ChildrenNamed("Course") {
		if err := umich.Insert(
			text(c.ChildText("number")), text(c.ChildText("title")),
			text(c.ChildText("prerequisite")), text(c.ChildText("instructor")),
		); err != nil {
			return err
		}
	}
	db.CreateTable(umich)

	ucsd := minidb.NewTable("ucsd", "num", "title", "fall2003", "winter2004")
	for _, c := range docs["ucsd"].Root.ChildrenNamed("Course") {
		if err := ucsd.Insert(
			text(c.ChildText("Number")), text(c.ChildText("Title")),
			text(c.ChildText("Fall2003")), text(c.ChildText("Winter2004")),
		); err != nil {
			return err
		}
	}
	db.CreateTable(ucsd)

	umass := minidb.NewTable("umass", "num", "name", "instructor", "days", "meets", "room")
	for _, c := range docs["umass"].Root.ChildrenNamed("Course") {
		if err := umass.Insert(
			text(c.ChildText("Number")), text(c.ChildText("Name")), text(c.ChildText("Instructor")),
			text(c.ChildText("Days")), text(c.ChildText("Time")), text(c.ChildText("Room")),
		); err != nil {
			return err
		}
	}
	db.CreateTable(umass)
	return nil
}

// registerUDFs installs the user-defined functions Cohera's answer plan
// needs — the C-language UDFs of the paper, written against minidb.
func registerUDFs(db *minidb.DB) {
	str1 := func(fn func(string) (string, error)) func([]minidb.Value) (minidb.Value, error) {
		return func(args []minidb.Value) (minidb.Value, error) {
			if len(args) != 1 {
				return minidb.Null, fmt.Errorf("cohera: UDF expects 1 argument")
			}
			if args[0].IsNull() {
				return minidb.Null, nil
			}
			out, err := fn(args[0].String())
			if err != nil {
				return minidb.Null, err
			}
			return minidb.Text(out), nil
		}
	}
	db.Register(&minidb.Func{
		Name: "to24h_start",
		Fn: str1(func(s string) (string, error) {
			start, _, err := mapping.ParseClockRange(s)
			if err != nil {
				return "", err
			}
			return start.String(), nil
		}),
	})
	db.Register(&minidb.Func{
		Name: "range24",
		Fn:   str1(mapping.RangeTo24),
	})
	db.Register(&minidb.Func{
		Name: "brown_title",
		Fn: str1(func(s string) (string, error) {
			return mapping.DecomposeBrownTitle(s).Title, nil
		}),
	})
	db.Register(&minidb.Func{
		Name: "brown_day",
		Fn: str1(func(s string) (string, error) {
			return mapping.CanonicalDays(mapping.DecomposeBrownTitle(s).Days), nil
		}),
	})
	db.Register(&minidb.Func{
		Name: "brown_time",
		Fn: str1(func(s string) (string, error) {
			return mapping.RangeTo24(mapping.DecomposeBrownTitle(s).Time)
		}),
	})
	db.Register(&minidb.Func{
		Name: "infer_entry",
		Fn: str1(func(s string) (string, error) {
			if mapping.InferEntryLevel("", s) {
				return "None", nil
			}
			return "", nil
		}),
	})
	db.Register(&minidb.Func{
		Name: "is_instructor",
		Fn: func(args []minidb.Value) (minidb.Value, error) {
			if len(args) != 1 {
				return minidb.Null, fmt.Errorf("cohera: is_instructor expects 1 argument")
			}
			if args[0].IsNull() {
				return minidb.Bool(false), nil
			}
			v := args[0].String()
			return minidb.Bool(v != "" && v != "(not offered)"), nil
		},
	})
}

// createViews installs the local-to-global mapping views.
func createViews(db *minidb.DB) error {
	views := map[string]string{
		// Query 1: renaming columns is pure mapping.
		"g_gatech_courses": `SELECT num AS course, title, instructor FROM gatech`,
		"g_cmu_courses":    `SELECT num AS course, title AS title, lecturer AS instructor, comment, units, day, meets, textbook FROM cmu`,
		// Queries 9/10: the attribute relocation and set flattening happen
		// in the wrapper-produced relations, so these too are pure mapping.
		"g_umd_sections": `SELECT s.num AS course, u.name AS title, s.teacher AS instructor, s.room AS room FROM umd_sections s, umd u WHERE s.num = u.num`,
		"g_brown_rooms":  `SELECT num AS course, title, room FROM brown`,
	}
	for name, sql := range views {
		if err := db.CreateView(name, sql); err != nil {
			return err
		}
	}
	return nil
}

// rows converts a minidb result to canonical integration rows, attaching
// the source and mapping result columns to canonical field names in order.
func rows(res *minidb.Result, source string, fields ...string) []integration.Row {
	var out []integration.Row
	for _, r := range res.Rows {
		row := integration.Row{"source": source}
		for i, f := range fields {
			if i < len(r) {
				if r[i].IsNull() {
					row[f] = ""
				} else {
					row[f] = r[i].String()
				}
			}
		}
		out = append(out, row)
	}
	return out
}

// Answer implements integration.System: it computes the paper's projected
// per-query behaviour.
func (s *System) Answer(req integration.Request) (*integration.Answer, error) {
	// The answer span opens before build() so a cold first call attributes
	// the one-time testbed shredding to this cell's trace.
	rec := explain.FromContext(req.Context())
	if rec != nil {
		sp := rec.Begin(explain.KindAnswer, "Cohera.Answer")
		defer sp.End()
	}
	db, err := s.build()
	if err != nil {
		return nil, err
	}
	q := func(sql string) (*minidb.Result, error) { return db.Query(sql) }
	if rec != nil {
		inner := q
		q = func(sql string) (*minidb.Result, error) {
			ssp := rec.Begin(explain.KindSQL, sql)
			for _, view := range mappingViews(sql) {
				rec.Event(explain.KindMapping, "view "+view)
			}
			res, err := inner(sql)
			if err == nil {
				ssp.SetRows(-1, len(res.Rows))
			}
			ssp.End()
			return res, err
		}
	}

	switch req.QueryID {
	case 1: // renaming columns: supportable by the local-to-global mapping.
		g, err := q(`SELECT course, instructor FROM g_gatech_courses WHERE instructor = 'Mark'`)
		if err != nil {
			return nil, err
		}
		c, err := q(`SELECT l.num, l.name FROM cmu_lecturers l WHERE l.name = 'Mark'`)
		if err != nil {
			return nil, err
		}
		out := append(rows(g, "gatech", "course", "instructor"), rows(c, "cmu", "course", "instructor")...)
		return &integration.Answer{Rows: out, Effort: integration.EffortNone}, nil

	case 2: // 24-hour clock: a small user-defined function.
		c, err := q(`SELECT course, title, range24(meets) FROM g_cmu_courses WHERE to24h_start(meets) = '13:30' AND lower(title) LIKE '%database%'`)
		if err != nil {
			return nil, err
		}
		u, err := q(`SELECT num, name, range24(meets) FROM umass WHERE to24h_start(meets) = '13:30' AND lower(name) LIKE '%database%'`)
		if err != nil {
			return nil, err
		}
		out := append(rows(c, "cmu", "course", "title", "time"), rows(u, "umass", "course", "title", "time")...)
		return &integration.Answer{
			Rows: out, Effort: integration.EffortSmall,
			Functions: []integration.FunctionUse{{Name: "to24h", Complexity: 1}},
		}, nil

	case 3: // union data types: a user-defined union conversion routine.
		u, err := q(`SELECT num, name FROM umd WHERE name LIKE '%Data Structures%'`)
		if err != nil {
			return nil, err
		}
		b, err := q(`SELECT num, brown_title(title) FROM brown WHERE brown_title(title) LIKE '%Data Structures%'`)
		if err != nil {
			return nil, err
		}
		out := append(rows(u, "umd", "course", "title"), rows(b, "brown", "course", "title")...)
		return &integration.Answer{
			Rows: out, Effort: integration.EffortModerate,
			Functions: []integration.FunctionUse{{Name: "union_conversion", Complexity: 2}},
		}, nil

	case 4, 5, 8:
		// "No easy way to deal with this, without large amounts of custom
		// code." For query 8 specifically: Postgres has exactly one NULL,
		// so missing-vs-inapplicable cannot be expressed.
		if rec != nil {
			rec.Event(explain.KindDecline, "no easy way without large amounts of custom code")
		}
		return nil, integration.ErrUnsupported

	case 6: // nulls: Postgres had direct support for nulls.
		t, err := q(`SELECT code, coalesce(book, '') FROM toronto WHERE title LIKE '%Verification%'`)
		if err != nil {
			return nil, err
		}
		c, err := q(`SELECT course, coalesce(textbook, '') FROM g_cmu_courses WHERE title LIKE '%Verification%'`)
		if err != nil {
			return nil, err
		}
		out := append(rows(t, "toronto", "course", "textbook"), rows(c, "cmu", "course", "textbook")...)
		return &integration.Answer{Rows: out, Effort: integration.EffortNone}, nil

	case 7: // virtual attributes: same answer as query 3.
		u, err := q(`SELECT num, title FROM umich WHERE prerequisite = 'None' AND title LIKE '%Database%'`)
		if err != nil {
			return nil, err
		}
		c, err := q(`SELECT course, title FROM g_cmu_courses WHERE infer_entry(comment) = 'None' AND title LIKE '%Database%'`)
		if err != nil {
			return nil, err
		}
		out := append(rows(u, "umich", "course", "title"), rows(c, "cmu", "course", "title")...)
		return &integration.Answer{
			Rows: out, Effort: integration.EffortModerate,
			Functions: []integration.FunctionUse{{Name: "infer_entry", Complexity: 2}},
		}, nil

	case 9: // attribute in different places: pure mapping (the wrapper
		// already hoisted the room out of Maryland's Time values).
		// Matching against Brown's composite title needs no conversion:
		// LIKE on the flattened text already finds the substring.
		b, err := q(`SELECT course, room FROM g_brown_rooms WHERE title LIKE '%Software Engineering%'`)
		if err != nil {
			return nil, err
		}
		u, err := q(`SELECT course, room FROM g_umd_sections WHERE title LIKE '%Software Engineering%'`)
		if err != nil {
			return nil, err
		}
		out := append(rows(b, "brown", "course", "room"), rows(u, "umd", "course", "room")...)
		return &integration.Answer{Rows: out, Effort: integration.EffortNone}, nil

	case 10: // sets: pure mapping over the wrapper-flattened relations.
		c, err := q(`SELECT l.num, l.name FROM cmu_lecturers l, cmu c WHERE l.num = c.num AND c.title LIKE '%Software%'`)
		if err != nil {
			return nil, err
		}
		u, err := q(`SELECT course, instructor FROM g_umd_sections WHERE title LIKE '%Software%'`)
		if err != nil {
			return nil, err
		}
		out := append(rows(c, "cmu", "course", "instructor"), rows(u, "umd", "course", "instructor")...)
		return &integration.Answer{Rows: out, Effort: integration.EffortNone}, nil

	case 11: // name does not define semantics: same answer as 3 and 7.
		c, err := q(`SELECT l.num, l.name FROM cmu_lecturers l, cmu c WHERE l.num = c.num AND c.title LIKE '%Database%'`)
		if err != nil {
			return nil, err
		}
		f, err := q(`SELECT num, fall2003 FROM ucsd WHERE title LIKE '%Database%' AND is_instructor(fall2003)`)
		if err != nil {
			return nil, err
		}
		w, err := q(`SELECT num, winter2004 FROM ucsd WHERE title LIKE '%Database%' AND is_instructor(winter2004)`)
		if err != nil {
			return nil, err
		}
		out := append(rows(c, "cmu", "course", "instructor"),
			append(rows(f, "ucsd", "course", "instructor"), rows(w, "ucsd", "course", "instructor")...)...)
		return &integration.Answer{
			Rows: out, Effort: integration.EffortModerate,
			Functions: []integration.FunctionUse{{Name: "term_columns", Complexity: 2}},
		}, nil

	case 12: // run-on columns: same answer as 3, 7 and 11.
		c, err := q(`SELECT course, title, day, range24(meets) FROM g_cmu_courses WHERE title LIKE '%Computer Networks%'`)
		if err != nil {
			return nil, err
		}
		b, err := q(`SELECT num, brown_title(title), brown_day(title), brown_time(title) FROM brown WHERE brown_title(title) LIKE '%Computer Networks%'`)
		if err != nil {
			return nil, err
		}
		out := append(rows(c, "cmu", "course", "title", "day", "time"),
			rows(b, "brown", "course", "title", "day", "time")...)
		return &integration.Answer{
			Rows: out, Effort: integration.EffortModerate,
			Functions: []integration.FunctionUse{{Name: "brown_decompose", Complexity: 2}},
		}, nil
	}
	return nil, fmt.Errorf("cohera: unknown benchmark query %d", req.QueryID)
}

// mappingViews extracts the local-to-global mapping views (g_* identifiers)
// referenced by a federated SQL statement, for explain provenance. Only
// called when an explain recorder is attached.
func mappingViews(sql string) []string {
	var views []string
	seen := map[string]bool{}
	for _, f := range strings.FieldsFunc(sql, func(r rune) bool {
		return !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9')
	}) {
		if strings.HasPrefix(f, "g_") && !seen[f] {
			seen[f] = true
			views = append(views, f)
		}
	}
	return views
}
