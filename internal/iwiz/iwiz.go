// Package iwiz models the University of Florida's Integration Wizard
// (IWIZ), the second system the paper evaluates: a combination of the data
// warehousing and mediation approaches. Source-specific wrappers translate
// each source from its local schema into the global IWIZ schema at build
// time; the translated documents are materialized in a warehouse; and a
// mediator answers queries from the warehouse "quickly and efficiently
// without connecting to the sources". IWIZ has no user-defined functions —
// transformations are specified in a 4GL, modeled here as declarative
// per-source wrapper specifications interpreted at build time.
//
// Per the paper's Section 4.2 projection, IWIZ answers nine queries with
// small-to-moderate amounts of custom integration code (including query 6,
// which needs moderate code because IWIZ has no direct NULL support) and
// cannot answer queries 4, 5 and 8.
package iwiz

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"thalia/internal/catalog"
	"thalia/internal/explain"
	"thalia/internal/integration"
	"thalia/internal/mapping"
	"thalia/internal/xmldom"
)

// Op is one 4GL transformation a wrapper spec may apply to a field.
type Op string

// The 4GL operation vocabulary.
const (
	// OpCopy copies the local element text.
	OpCopy Op = "copy"
	// OpTitleText copies only the direct text of the local element,
	// excluding nested comments (CMU's title).
	OpTitleText Op = "title-text"
	// OpRange24 converts a meeting-time range to the canonical 24-hour form.
	OpRange24 Op = "range24"
	// OpBrownTitle, OpBrownDay, OpBrownTime decompose Brown's composite
	// Title/Time column.
	OpBrownTitle Op = "brown-title"
	OpBrownDay   Op = "brown-day"
	OpBrownTime  Op = "brown-time"
	// OpSplitSlash emits one global element per slash-separated component
	// (CMU's set-valued Lecturer).
	OpSplitSlash Op = "split-slash"
	// OpInferPrereq infers a prerequisite value from a comment attached to
	// the title.
	OpInferPrereq Op = "infer-prereq"
	// OpTextbookStatus copies a textbook value, marking absence explicitly
	// (IWIZ has no direct NULL support; this is its moderate-code stand-in).
	OpTextbookStatus Op = "textbook-status"
)

// FieldSpec maps one local field into the global schema.
type FieldSpec struct {
	// Global is the element name in the IWIZ global schema.
	Global string
	// Local is the child element of the local course record to read.
	Local string
	// Transform is the 4GL operation; OpCopy when empty.
	Transform Op
}

// WrapperSpec is the build-time translation program for one source.
type WrapperSpec struct {
	Source string
	// Record is the local course element name under the source root.
	Record string
	Fields []FieldSpec
	// Sections, when set, names a nested section element whose contents
	// are hoisted into per-course global Instructor/Room elements
	// (Maryland's structure).
	Sections string
}

// globalCourse is the IWIZ global schema for one course:
//
//	<Course source="..."><Number/><Title/><Instructor/>*<Day/><Time/>
//	<Room/>*<Textbook status="present|missing"/><Prerequisite/>
//	<Restriction/><Units/></Course>
//
// Unused fields are simply absent.

// System is the IWIZ model. It is safe for concurrent use: the warehouse is
// materialized exactly once behind the build mutex (concurrent first
// callers block until the build completes and then share it), and Answer
// only reads the warehoused documents.
//
// The build is all-or-nothing: the warehouse map is published only after
// every wrapper spec succeeded, and a build error is returned but never
// cached — a transiently failing source fails that call alone instead of
// poisoning every later query.
type System struct {
	mu        sync.Mutex
	warehouse map[string]*xmldom.Element // source → <Courses> root in the global schema
	// rebuilds counts successful warehouse builds (1 after first use); the
	// ablation benchmark compares answering from the warehouse against
	// re-wrapping per query.
	rebuilds int
	// buildFn is a test seam for the regression suite's fail-once builds;
	// nil means BuildWarehouse.
	buildFn func() (map[string]*xmldom.Element, error)
}

// New returns an IWIZ instance over the built-in testbed.
func New() *System { return &System{} }

// Name implements integration.System.
func (s *System) Name() string { return "IWIZ" }

// Description implements integration.System.
func (s *System) Description() string {
	return "warehouse + mediator: 4GL wrapper specs translate sources into the global IWIZ schema at build time; the mediator answers from the warehouse"
}

// Specs returns the wrapper specifications for the sources IWIZ federates.
// Queries 4, 5 and 8 would need the ETH source; its German schema and
// Umfang notation are beyond what the 4GL expresses, which is exactly why
// those queries are unanswerable for IWIZ.
func Specs() []WrapperSpec {
	return []WrapperSpec{
		{
			Source: "gatech", Record: "Course",
			Fields: []FieldSpec{
				{Global: "Number", Local: "CourseNum"},
				{Global: "Title", Local: "Title"},
				{Global: "Instructor", Local: "Instructor"},
				// Georgia Tech's Time column runs days and times together
				// ("MWF 9:00am-9:50am"); no query needs it canonicalized.
				{Global: "Time", Local: "Time"},
				{Global: "Room", Local: "Room"},
				{Global: "Restriction", Local: "Restrictions"},
			},
		},
		{
			Source: "cmu", Record: "Course",
			Fields: []FieldSpec{
				{Global: "Number", Local: "CourseNumber"},
				{Global: "Title", Local: "CourseTitle", Transform: OpTitleText},
				{Global: "Instructor", Local: "Lecturer", Transform: OpSplitSlash},
				{Global: "Units", Local: "Units"},
				{Global: "Day", Local: "Day"},
				{Global: "Time", Local: "Time", Transform: OpRange24},
				{Global: "Room", Local: "Room"},
				{Global: "Textbook", Local: "Textbook", Transform: OpTextbookStatus},
				{Global: "Prerequisite", Local: "CourseTitle", Transform: OpInferPrereq},
			},
		},
		{
			Source: "umd", Record: "Course", Sections: "Section",
			Fields: []FieldSpec{
				{Global: "Number", Local: "CourseNum"},
				{Global: "Title", Local: "CourseName"},
			},
		},
		{
			Source: "brown", Record: "Course",
			Fields: []FieldSpec{
				{Global: "Number", Local: "CrsNum"},
				{Global: "Title", Local: "Title", Transform: OpBrownTitle},
				{Global: "Day", Local: "Title", Transform: OpBrownDay},
				{Global: "Time", Local: "Title", Transform: OpBrownTime},
				{Global: "Room", Local: "Room"},
			},
		},
		{
			Source: "toronto", Record: "course",
			Fields: []FieldSpec{
				{Global: "Number", Local: "code"},
				{Global: "Title", Local: "title"},
				{Global: "Instructor", Local: "instructor"},
				{Global: "Textbook", Local: "text", Transform: OpTextbookStatus},
			},
		},
		{
			Source: "umich", Record: "Course",
			Fields: []FieldSpec{
				{Global: "Number", Local: "number"},
				{Global: "Title", Local: "title"},
				{Global: "Instructor", Local: "instructor"},
				{Global: "Prerequisite", Local: "prerequisite"},
			},
		},
		{
			Source: "ucsd", Record: "Course",
			Fields: []FieldSpec{
				{Global: "Number", Local: "Number"},
				{Global: "Title", Local: "Title"},
				// The term columns hold instructor information (case 11):
				// the wrapper spec renames both into Instructor.
				{Global: "Instructor", Local: "Fall2003"},
				{Global: "Instructor", Local: "Winter2004"},
			},
		},
		{
			Source: "umass", Record: "Course",
			Fields: []FieldSpec{
				{Global: "Number", Local: "Number"},
				{Global: "Title", Local: "Name"},
				{Global: "Instructor", Local: "Instructor"},
				{Global: "Day", Local: "Days"},
				{Global: "Time", Local: "Time", Transform: OpRange24},
				{Global: "Room", Local: "Room"},
			},
		},
	}
}

// BuildWarehouse runs every wrapper spec and returns the per-source global
// documents. Exposed for the warehouse-vs-rewrap ablation.
func BuildWarehouse() (map[string]*xmldom.Element, error) {
	out := map[string]*xmldom.Element{}
	for _, spec := range Specs() {
		root, err := wrap(spec)
		if err != nil {
			return nil, err
		}
		out[spec.Source] = root
	}
	return out, nil
}

// wrap translates one source into the global schema.
func wrap(spec WrapperSpec) (*xmldom.Element, error) {
	src, err := catalog.Get(spec.Source)
	if err != nil {
		return nil, err
	}
	doc, err := src.Document()
	if err != nil {
		return nil, err
	}
	root := xmldom.NewElement("Courses").SetAttr("source", spec.Source)
	for _, rec := range doc.Root.ChildrenNamed(spec.Record) {
		course := xmldom.NewElement("Course").SetAttr("source", spec.Source)
		for _, f := range spec.Fields {
			if err := applyField(course, rec, f); err != nil {
				return nil, fmt.Errorf("iwiz: wrap %s: %w", spec.Source, err)
			}
		}
		if spec.Sections != "" {
			for _, sec := range rec.ChildrenNamed(spec.Sections) {
				st, err := mapping.ParseUMDSection(sec.ChildText("SectionTitle"))
				if err != nil {
					return nil, fmt.Errorf("iwiz: wrap %s: %w", spec.Source, err)
				}
				tm, err := mapping.ParseUMDTime(sec.ChildText("Time"))
				if err != nil {
					return nil, fmt.Errorf("iwiz: wrap %s: %w", spec.Source, err)
				}
				course.Append(xmldom.NewElement("Instructor").AppendText(st.Teacher))
				course.Append(xmldom.NewElement("Room").AppendText(tm.Room))
				t24, err := mapping.To24Hour(tm.Time)
				if err != nil {
					return nil, fmt.Errorf("iwiz: wrap %s: %w", spec.Source, err)
				}
				course.Append(xmldom.NewElement("Time").AppendText(t24))
				course.Append(xmldom.NewElement("Day").AppendText(mapping.CanonicalDays(tm.Days)))
			}
		}
		root.Append(course)
	}
	return root, nil
}

func applyField(course, rec *xmldom.Element, f FieldSpec) error {
	local := rec.Child(f.Local)
	if local == nil {
		return nil // absent fields are simply not materialized
	}
	emit := func(v string) {
		course.Append(xmldom.NewElement(f.Global).AppendText(v))
	}
	switch f.Transform {
	case "", OpCopy:
		emit(local.Text())
	case OpTitleText:
		emit(local.Text())
	case OpRange24:
		v, err := mapping.RangeTo24(local.Text())
		if err != nil {
			return err
		}
		emit(v)
	case OpBrownTitle:
		if a := local.Child("a"); a != nil {
			emit(a.Text())
		} else {
			emit(mapping.DecomposeBrownTitle(local.DeepText()).Title)
		}
	case OpBrownDay:
		bt := mapping.DecomposeBrownTitle(local.DeepText())
		if bt.Days != "" {
			emit(mapping.CanonicalDays(bt.Days))
		}
	case OpBrownTime:
		bt := mapping.DecomposeBrownTitle(local.DeepText())
		if bt.Time != "" {
			v, err := mapping.RangeTo24(bt.Time)
			if err != nil {
				return err
			}
			emit(v)
		}
	case OpSplitSlash:
		for _, part := range strings.Split(local.Text(), "/") {
			if part = strings.TrimSpace(part); part != "" {
				emit(part)
			}
		}
	case OpInferPrereq:
		if mapping.InferEntryLevel("", local.ChildText("Comment")) {
			emit("None")
		}
	case OpTextbookStatus:
		el := xmldom.NewElement(f.Global)
		if v := strings.TrimSpace(local.Text()); v != "" {
			el.SetAttr("status", "present").AppendText(v)
		} else {
			el.SetAttr("status", "missing")
		}
		course.Append(el)
	default:
		return fmt.Errorf("unknown 4GL op %q", f.Transform)
	}
	return nil
}

// build materializes the warehouse, caching only a fully built one.
func (s *System) build() (map[string]*xmldom.Element, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.warehouse != nil {
		return s.warehouse, nil
	}
	buildFn := s.buildFn
	if buildFn == nil {
		buildFn = BuildWarehouse
	}
	w, err := buildFn()
	if err != nil {
		return nil, err
	}
	s.warehouse = w
	s.rebuilds++
	return w, nil
}

// courses returns the warehouse's global course elements for a source.
func (s *System) courses(source string) ([]*xmldom.Element, error) {
	warehouse, err := s.build()
	if err != nil {
		return nil, err
	}
	root, ok := warehouse[source]
	if !ok {
		return nil, fmt.Errorf("iwiz: source %q is not in the warehouse", source)
	}
	return root.ChildrenNamed("Course"), nil
}

// collect builds canonical rows from warehouse courses: one row per course
// (rowFields) or one per repeated element (perElem).
func collect(cs []*xmldom.Element, source string, keep func(*xmldom.Element) bool, fields map[string]string, perElem string, perField string) []integration.Row {
	var out []integration.Row
	for _, c := range cs {
		if !keep(c) {
			continue
		}
		base := integration.Row{"source": source}
		for canonical, global := range fields {
			base[canonical] = c.ChildText(global)
		}
		if perElem == "" {
			out = append(out, base)
			continue
		}
		for _, el := range c.ChildrenNamed(perElem) {
			row := integration.Row{}
			for k, v := range base {
				row[k] = v
			}
			row[perField] = el.Text()
			out = append(out, row)
		}
	}
	return out
}

// Answer implements integration.System: it computes the paper's projected
// per-query behaviour, nine queries via the warehouse and three declined.
func (s *System) Answer(req integration.Request) (*integration.Answer, error) {
	if _, err := s.build(); err != nil {
		return nil, err
	}
	courses := s.courses
	rec := explain.FromContext(req.Context())
	if rec != nil {
		courses = func(src string) ([]*xmldom.Element, error) {
			cs, err := s.courses(src)
			if err == nil {
				rec.Event(explain.KindWarehouse, "warehouse "+src,
					explain.A("courses", strconv.Itoa(len(cs))))
			}
			return cs, err
		}
	}
	titleHas := func(sub string) func(*xmldom.Element) bool {
		return func(c *xmldom.Element) bool {
			return strings.Contains(c.ChildText("Title"), sub)
		}
	}
	answer := func(rows []integration.Row, effort integration.Effort, fn string, cx int) *integration.Answer {
		return &integration.Answer{Rows: rows, Effort: effort,
			Functions: []integration.FunctionUse{{Name: fn, Complexity: cx}}}
	}

	switch req.QueryID {
	case 1: // renaming: the wrapper specs map Instructor/Lecturer to one name.
		var rows []integration.Row
		for _, src := range []string{"gatech", "cmu"} {
			cs, err := courses(src)
			if err != nil {
				return nil, err
			}
			for _, c := range cs {
				for _, in := range c.ChildrenNamed("Instructor") {
					if in.Text() == "Mark" {
						rows = append(rows, integration.Row{
							"source": src, "course": c.ChildText("Number"), "instructor": "Mark",
						})
					}
				}
			}
		}
		return answer(rows, integration.EffortSmall, "rename_mapping", 1), nil

	case 2: // clock: the wrapper canonicalized times at build time.
		var rows []integration.Row
		for _, src := range []string{"cmu", "umass"} {
			cs, err := courses(src)
			if err != nil {
				return nil, err
			}
			for _, c := range cs {
				t := c.ChildText("Time")
				title := c.ChildText("Title")
				if strings.HasPrefix(t, "13:30") && strings.Contains(strings.ToLower(title), "database") {
					rows = append(rows, integration.Row{
						"source": src, "course": c.ChildText("Number"), "title": title, "time": t,
					})
				}
			}
		}
		return answer(rows, integration.EffortSmall, "time_canonicalizer", 1), nil

	case 3: // union types: the brown wrapper flattened link+string titles.
		var rows []integration.Row
		for _, src := range []string{"umd", "brown"} {
			cs, err := courses(src)
			if err != nil {
				return nil, err
			}
			rows = append(rows, collect(cs, src, titleHas("Data Structures"),
				map[string]string{"course": "Number", "title": "Title"}, "", "")...)
		}
		return answer(rows, integration.EffortModerate, "union_flatten", 2), nil

	case 4, 5, 8:
		// The 4GL cannot express the credit-semantics mapping, the language
		// translation, or dual NULLs: "no easy way to deal with this."
		if rec != nil {
			rec.Event(explain.KindDecline, "4GL cannot express the required mapping")
		}
		return nil, integration.ErrUnsupported

	case 6: // nulls: no direct support — the wrapper's textbook-status
		// convention (moderate custom code) marks missing values.
		var rows []integration.Row
		for _, src := range []string{"toronto", "cmu"} {
			cs, err := courses(src)
			if err != nil {
				return nil, err
			}
			for _, c := range cs {
				if !strings.Contains(c.ChildText("Title"), "Verification") {
					continue
				}
				book := ""
				if tb := c.Child("Textbook"); tb != nil && tb.AttrValue("status") == "present" {
					book = tb.Text()
				}
				rows = append(rows, integration.Row{
					"source": src, "course": c.ChildText("Number"), "textbook": book,
				})
			}
		}
		return answer(rows, integration.EffortModerate, "missing_value_marker", 2), nil

	case 7: // virtual columns: the cmu wrapper inferred Prerequisite.
		var rows []integration.Row
		for _, src := range []string{"umich", "cmu"} {
			cs, err := courses(src)
			if err != nil {
				return nil, err
			}
			for _, c := range cs {
				if c.ChildText("Prerequisite") == "None" && strings.Contains(c.ChildText("Title"), "Database") {
					rows = append(rows, integration.Row{
						"source": src, "course": c.ChildText("Number"), "title": c.ChildText("Title"),
					})
				}
			}
		}
		return answer(rows, integration.EffortModerate, "prereq_inference", 2), nil

	case 9: // structure: the umd wrapper hoisted rooms to the course level.
		var rows []integration.Row
		bs, err := courses("brown")
		if err != nil {
			return nil, err
		}
		rows = append(rows, collect(bs, "brown", titleHas("Software Engineering"),
			map[string]string{"course": "Number", "room": "Room"}, "", "")...)
		us, err := courses("umd")
		if err != nil {
			return nil, err
		}
		for _, c := range us {
			if !strings.Contains(c.ChildText("Title"), "Software Engineering") {
				continue
			}
			for _, room := range c.ChildrenNamed("Room") {
				rows = append(rows, integration.Row{
					"source": "umd", "course": c.ChildText("Number"), "room": room.Text(),
				})
			}
		}
		return answer(rows, integration.EffortSmall, "structure_mapping", 1), nil

	case 10: // sets: both wrappers normalized to repeated Instructor elements.
		var rows []integration.Row
		for _, src := range []string{"cmu", "umd"} {
			cs, err := courses(src)
			if err != nil {
				return nil, err
			}
			rows = append(rows, collect(cs, src, titleHas("Software"),
				map[string]string{"course": "Number"}, "Instructor", "instructor")...)
		}
		return answer(rows, integration.EffortSmall, "set_normalization", 1), nil

	case 11: // names without semantics: the ucsd wrapper renamed term columns.
		var rows []integration.Row
		for _, src := range []string{"cmu", "ucsd"} {
			cs, err := courses(src)
			if err != nil {
				return nil, err
			}
			for _, c := range cs {
				if !strings.Contains(c.ChildText("Title"), "Database") {
					continue
				}
				for _, in := range c.ChildrenNamed("Instructor") {
					if in.Text() == "" || in.Text() == "(not offered)" {
						continue
					}
					rows = append(rows, integration.Row{
						"source": src, "course": c.ChildText("Number"), "instructor": in.Text(),
					})
				}
			}
		}
		return answer(rows, integration.EffortModerate, "term_column_mapping", 2), nil

	case 12: // composition: the brown wrapper decomposed title/day/time.
		var rows []integration.Row
		for _, src := range []string{"cmu", "brown"} {
			cs, err := courses(src)
			if err != nil {
				return nil, err
			}
			rows = append(rows, collect(cs, src, titleHas("Computer Networks"),
				map[string]string{"course": "Number", "title": "Title", "day": "Day", "time": "Time"}, "", "")...)
		}
		return answer(rows, integration.EffortModerate, "composite_decomposition", 2), nil
	}
	return nil, fmt.Errorf("iwiz: unknown benchmark query %d", req.QueryID)
}
