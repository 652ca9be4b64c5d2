// Package benchmark implements THALIA's benchmark proper: the twelve
// queries of Section 3.1 (one per heterogeneity case), their expected
// integrated answers over the testbed, the scoring function of Section 3.2
// (one point per correct answer, external-function complexity as a
// tie-breaker), a runner that evaluates any integration.System, and the
// Honor Roll report the web site publishes.
package benchmark

import (
	"fmt"
	"strings"

	"thalia/internal/catalog"
	"thalia/internal/hetero"
	"thalia/internal/integration"
	"thalia/internal/mapping"
)

// Query is one benchmark query: a heterogeneity case, a reference schema
// the query is written against, and a challenge schema exhibiting the
// heterogeneity the integration system must resolve.
type Query struct {
	// ID is the benchmark query number, 1-12.
	ID int
	// Case is the heterogeneity this query exercises.
	Case hetero.Case
	// Name is the paper's short description of the task.
	Name string
	// Challenge is the paper's statement of what must be resolved.
	Challenge string
	// PaperXQuery is the query text as printed in the paper.
	PaperXQuery string
	// XQuery is the runnable normalization of PaperXQuery against the
	// testbed's extracted reference schema (the paper's queries are
	// illustrative; e.g. its equality-with-%-pattern is spelled as the
	// LIKE-style match the text implies).
	XQuery string
	// Reference and Challenge sources.
	Reference       string
	ChallengeSource string
	// Fields is the canonical result-row vocabulary for this query.
	Fields []string
	// truth computes the expected integrated rows from the testbed's
	// generator-side ground truth (independent of the XML pipeline).
	truth func() ([]integration.Row, error)
}

// Expected returns the expected integrated answer rows.
func (q *Query) Expected() ([]integration.Row, error) { return q.truth() }

// NewQuery constructs a benchmark query from generated parts. Scenario
// workloads (internal/scenario) use this to build query families whose
// expected answers are computed, not hand-written: truth must return the
// integrated rows the answer is scored against, and must be safe to call
// from any goroutine (the engine invokes it once per query per run, on
// whichever worker first needs it).
func NewQuery(id int, c hetero.Case, name, xquery, reference, challenge string, fields []string, truth func() ([]integration.Row, error)) *Query {
	return &Query{
		ID: id, Case: c, Name: name,
		PaperXQuery: xquery, XQuery: xquery,
		Reference: reference, ChallengeSource: challenge,
		Fields: fields, truth: truth,
	}
}

// Request converts the query into the request handed to a system.
func (q *Query) Request() integration.Request {
	return integration.Request{
		QueryID:   q.ID,
		XQuery:    q.XQuery,
		Reference: q.Reference,
		Challenge: q.ChallengeSource,
	}
}

// sourceCourses returns the generator-side course data for a source.
func sourceCourses(name string) ([]catalog.Course, error) {
	s, err := catalog.Get(name)
	if err != nil {
		return nil, err
	}
	return s.Courses, nil
}

// hasFold reports case-insensitive containment.
func hasFold(s, sub string) bool {
	return strings.Contains(strings.ToLower(s), strings.ToLower(sub))
}

// Queries returns the twelve benchmark queries in order.
func Queries() []*Query {
	lex := mapping.NewGermanLexicon()
	return []*Query{
		{
			ID: 1, Case: hetero.Synonyms,
			Name:      `List courses taught by instructor "Mark"`,
			Challenge: `Determine that in CMU's course catalog the instructor information can be found in a field called "Lecturer".`,
			PaperXQuery: `FOR $b in doc("gatech.xml")/gatech/Course
WHERE $b/Instructor = "Mark"
RETURN $b`,
			XQuery: `FOR $b in doc("gatech.xml")/gatech/Course
WHERE $b/Instructor = "Mark"
RETURN $b`,
			Reference: "gatech", ChallengeSource: "cmu",
			Fields: []string{"source", "course", "instructor"},
			truth: func() ([]integration.Row, error) {
				var rows []integration.Row
				for _, src := range []string{"gatech", "cmu"} {
					cs, err := sourceCourses(src)
					if err != nil {
						return nil, err
					}
					for _, c := range cs {
						for _, in := range c.Instructors {
							if in.Name == "Mark" {
								rows = append(rows, integration.Row{
									"source": src, "course": c.Number, "instructor": "Mark",
								})
							}
						}
					}
				}
				return rows, nil
			},
		},
		{
			ID: 2, Case: hetero.SimpleMapping,
			Name:      "Find all database courses that meet at 1:30pm on any given day",
			Challenge: "Conversion of time represented in 12 hour-clock to 24 hour-clock.",
			PaperXQuery: `FOR $b in doc("cmu.xml")/cmu/Course
WHERE $b/Course/Time='1:30 - 2:50'
RETURN $b`,
			XQuery: `FOR $b in doc("cmu.xml")/cmu/Course
WHERE starts-with($b/Time, '1:30') and $b/CourseTitle = '%Database%'
RETURN $b`,
			Reference: "cmu", ChallengeSource: "umass",
			Fields: []string{"source", "course", "title", "time"},
			truth: func() ([]integration.Row, error) {
				var rows []integration.Row
				for _, src := range []string{"cmu", "umass"} {
					cs, err := sourceCourses(src)
					if err != nil {
						return nil, err
					}
					for _, c := range cs {
						if c.Start == 13*60+30 && hasFold(c.Title, "database") {
							rows = append(rows, integration.Row{
								"source": src, "course": c.Number, "title": c.Title,
								"time": mapping.Minutes(c.Start).String() + "-" + mapping.Minutes(c.End).String(),
							})
						}
					}
				}
				return rows, nil
			},
		},
		{
			ID: 3, Case: hetero.UnionTypes,
			Name:      "Find all courses with the string 'Data Structures' in the title",
			Challenge: "Map a single string to a combination external link (URL) and string to find a matching value. In addition, this query exhibits a synonym heterogeneity (CourseName vs. Title).",
			PaperXQuery: `FOR $b in doc("umd.xml")/umd/Course
WHERE $b/CourseName='%Data Structures%'
RETURN $b`,
			XQuery: `FOR $b in doc("umd.xml")/umd/Course
WHERE $b/CourseName = '%Data Structures%'
RETURN $b`,
			Reference: "umd", ChallengeSource: "brown",
			Fields: []string{"source", "course", "title"},
			truth: func() ([]integration.Row, error) {
				var rows []integration.Row
				for _, src := range []string{"umd", "brown"} {
					cs, err := sourceCourses(src)
					if err != nil {
						return nil, err
					}
					for _, c := range cs {
						if strings.Contains(c.Title, "Data Structures") {
							rows = append(rows, integration.Row{
								"source": src, "course": c.Number, "title": c.Title,
							})
						}
					}
				}
				return rows, nil
			},
		},
		{
			ID: 4, Case: hetero.ComplexMappings,
			Name:      "List all database courses that carry more than 10 credit hours",
			Challenge: `Apart from the language conversion issues, the challenge is to develop a mapping that converts the numeric value for credit hours into a string that describes the expected scope ("Umfang") of the course.`,
			PaperXQuery: `FOR $b in doc("cmu.xml")/cmu/Course
WHERE $b/Units >10 AND $b/CourseName='%Database%'
RETURN $b`,
			XQuery: `FOR $b in doc("cmu.xml")/cmu/Course
WHERE $b/Units > 10 and $b/CourseTitle = '%Database%'
RETURN $b`,
			Reference: "cmu", ChallengeSource: "eth",
			Fields: []string{"source", "course", "title", "units"},
			truth: func() ([]integration.Row, error) {
				var rows []integration.Row
				cs, err := sourceCourses("cmu")
				if err != nil {
					return nil, err
				}
				for _, c := range cs {
					if c.Credits > 10 && strings.Contains(c.Title, "Database") {
						rows = append(rows, integration.Row{
							"source": "cmu", "course": c.Number, "title": c.Title,
							"units": fmt.Sprintf("%d", c.Credits),
						})
					}
				}
				es, err := sourceCourses("eth")
				if err != nil {
					return nil, err
				}
				for _, c := range es {
					u, err := mapping.ParseUmfang(c.UnitsNote)
					if err != nil {
						continue
					}
					if u.Units() > 10 && lex.ValueContains(c.GermanTitle, "database") {
						rows = append(rows, integration.Row{
							"source": "eth", "course": c.Number, "title": c.GermanTitle,
							"units": fmt.Sprintf("%d", u.Units()),
						})
					}
				}
				return rows, nil
			},
		},
		{
			ID: 5, Case: hetero.LanguageExpression,
			Name:      "Find all courses with the string 'database' in the course title",
			Challenge: `Convert the German tags into their English counterparts; convert the English course title 'Database' into its German counterpart 'Datenbank' or 'Datenbanksystem' and retrieve matching ETH courses.`,
			PaperXQuery: `FOR $b in doc("umd.xml")/umd/Course
WHERE $b/CourseName='%Database%'
RETURN $b`,
			XQuery: `FOR $b in doc("umd.xml")/umd/Course
WHERE $b/CourseName = '%Database%'
RETURN $b`,
			Reference: "umd", ChallengeSource: "eth",
			Fields: []string{"source", "course", "title"},
			truth: func() ([]integration.Row, error) {
				var rows []integration.Row
				cs, err := sourceCourses("umd")
				if err != nil {
					return nil, err
				}
				for _, c := range cs {
					if strings.Contains(c.Title, "Database") {
						rows = append(rows, integration.Row{
							"source": "umd", "course": c.Number, "title": c.Title,
						})
					}
				}
				es, err := sourceCourses("eth")
				if err != nil {
					return nil, err
				}
				for _, c := range es {
					if lex.ValueContains(c.GermanTitle, "database") {
						rows = append(rows, integration.Row{
							"source": "eth", "course": c.Number, "title": c.GermanTitle,
						})
					}
				}
				return rows, nil
			},
		},
		{
			ID: 6, Case: hetero.Nulls,
			Name:      "List all textbooks for courses about verification theory",
			Challenge: "Proper treatment of NULL values: the integrated result must include the fact that no textbook information was available for CMU's course.",
			PaperXQuery: `FOR $b in doc("toronto.xml")/toronto/course
WHERE $b/title='%Verification%'
RETURN $b/text`,
			XQuery: `FOR $b in doc("toronto.xml")/toronto/course
WHERE $b/title = '%Verification%'
RETURN $b/text`,
			Reference: "toronto", ChallengeSource: "cmu",
			Fields: []string{"source", "course", "textbook"},
			truth: func() ([]integration.Row, error) {
				var rows []integration.Row
				for _, src := range []string{"toronto", "cmu"} {
					cs, err := sourceCourses(src)
					if err != nil {
						return nil, err
					}
					for _, c := range cs {
						if !strings.Contains(c.Title, "Verification") {
							continue
						}
						book := mapping.Present(c.Textbook)
						if strings.TrimSpace(c.Textbook) == "" {
							book = mapping.Missing()
						}
						rows = append(rows, integration.Row{
							"source": src, "course": c.Number, "textbook": book.Marker(),
						})
					}
				}
				return rows, nil
			},
		},
		{
			ID: 7, Case: hetero.VirtualColumns,
			Name:      "Find all entry-level database courses",
			Challenge: "Infer the fact that the course is an entry-level course from the comment field that is attached to the title.",
			PaperXQuery: `FOR $b in doc("umich.xml")/umich/Course
WHERE $b/prerequisite='None'
RETURN $b`,
			XQuery: `FOR $b in doc("umich.xml")/umich/Course
WHERE $b/prerequisite = 'None' and $b/title = '%Database%'
RETURN $b`,
			Reference: "umich", ChallengeSource: "cmu",
			Fields: []string{"source", "course", "title"},
			truth: func() ([]integration.Row, error) {
				var rows []integration.Row
				cs, err := sourceCourses("umich")
				if err != nil {
					return nil, err
				}
				for _, c := range cs {
					if strings.Contains(c.Title, "Database") && mapping.InferEntryLevel(c.Prereq, "") {
						rows = append(rows, integration.Row{
							"source": "umich", "course": c.Number, "title": c.Title,
						})
					}
				}
				ms, err := sourceCourses("cmu")
				if err != nil {
					return nil, err
				}
				for _, c := range ms {
					if strings.Contains(c.Title, "Database") && mapping.InferEntryLevel("", c.Comment) {
						rows = append(rows, integration.Row{
							"source": "cmu", "course": c.Number, "title": c.Title,
						})
					}
				}
				return rows, nil
			},
		},
		{
			ID: 8, Case: hetero.SemanticIncompatibility,
			Name:      "List all database courses open to juniors",
			Challenge: `Distinguish "data missing but could be present" from "data missing and cannot be present": ETH has no concept of student classification, so a plain NULL would be misleading.`,
			PaperXQuery: `FOR $b in doc("gatech.xml")/gatech/Course
WHERE $b/Course restricted='%JR%'
RETURN $b`,
			XQuery: `FOR $b in doc("gatech.xml")/gatech/Course
WHERE $b/Title = '%Database%' and $b/Restrictions = '%JR%'
RETURN $b`,
			Reference: "gatech", ChallengeSource: "eth",
			Fields: []string{"source", "course", "title", "restriction"},
			truth: func() ([]integration.Row, error) {
				var rows []integration.Row
				cs, err := sourceCourses("gatech")
				if err != nil {
					return nil, err
				}
				for _, c := range cs {
					if strings.Contains(c.Title, "Database") && mapping.OpenTo(c.Restrict, "JR") {
						rows = append(rows, integration.Row{
							"source": "gatech", "course": c.Number, "title": c.Title,
							"restriction": c.Restrict,
						})
					}
				}
				es, err := sourceCourses("eth")
				if err != nil {
					return nil, err
				}
				for _, c := range es {
					if lex.ValueContains(c.GermanTitle, "database") {
						rows = append(rows, integration.Row{
							"source": "eth", "course": c.Number, "title": c.GermanTitle,
							"restriction": mapping.Inapplicable().Marker(),
						})
					}
				}
				return rows, nil
			},
		},
		{
			ID: 9, Case: hetero.SameAttributeDifferentStructure,
			Name:      "Find the room in which the software engineering course is held",
			Challenge: "Determine that room information in the University of Maryland's course catalog is available as part of the time element located under the Section element.",
			PaperXQuery: `FOR $b in doc("brown.xml")/brown/Course
WHERE $b/Title ='Software Engineering'
RETURN $b/Room`,
			XQuery: `FOR $b in doc("brown.xml")/brown/Course
WHERE $b/Title = '%Software Engineering%'
RETURN $b/Room`,
			Reference: "brown", ChallengeSource: "umd",
			Fields: []string{"source", "course", "room"},
			truth: func() ([]integration.Row, error) {
				var rows []integration.Row
				bs, err := sourceCourses("brown")
				if err != nil {
					return nil, err
				}
				for _, c := range bs {
					if strings.Contains(c.Title, "Software Engineering") {
						room := c.Room
						if c.LabRoom != "" {
							room += ", " + c.LabRoom
						}
						rows = append(rows, integration.Row{
							"source": "brown", "course": c.Number, "room": room,
						})
					}
				}
				us, err := sourceCourses("umd")
				if err != nil {
					return nil, err
				}
				for _, c := range us {
					if !strings.Contains(c.Title, "Software Engineering") {
						continue
					}
					for _, sec := range c.Sections {
						rows = append(rows, integration.Row{
							"source": "umd", "course": c.Number, "room": sec.Room,
						})
					}
				}
				return rows, nil
			},
		},
		{
			ID: 10, Case: hetero.HandlingSets,
			Name:      "List all instructors for courses on software systems",
			Challenge: "Gather the instructor information by extracting the name part from all of the section titles rather than from a single field called Lecturer.",
			PaperXQuery: `FOR $b in doc("cmu.xml")/cmu/Course
WHERE $b/CourseTitle ='%Software%'
RETURN $b/Lecturer`,
			XQuery: `FOR $b in doc("cmu.xml")/cmu/Course
WHERE $b/CourseTitle = '%Software%'
RETURN $b/Lecturer`,
			Reference: "cmu", ChallengeSource: "umd",
			Fields: []string{"source", "course", "instructor"},
			truth: func() ([]integration.Row, error) {
				var rows []integration.Row
				cs, err := sourceCourses("cmu")
				if err != nil {
					return nil, err
				}
				for _, c := range cs {
					if !strings.Contains(c.Title, "Software") {
						continue
					}
					for _, in := range c.Instructors {
						rows = append(rows, integration.Row{
							"source": "cmu", "course": c.Number, "instructor": in.Name,
						})
					}
				}
				us, err := sourceCourses("umd")
				if err != nil {
					return nil, err
				}
				for _, c := range us {
					if !strings.Contains(c.Title, "Software") {
						continue
					}
					for _, sec := range c.Sections {
						rows = append(rows, integration.Row{
							"source": "umd", "course": c.Number, "instructor": sec.Teacher,
						})
					}
				}
				return rows, nil
			},
		},
		{
			ID: 11, Case: hetero.AttributeNameDoesNotDefineSemantics,
			Name:      "List instructors for the database course",
			Challenge: `Associate the columns labeled "Fall 2003", "Winter 2004" etc. with instructor information.`,
			PaperXQuery: `FOR $b in doc("cmu.xml")/cmu/Course
WHERE $b/Course Title ='%Database'
RETURN $b/Lecturer`,
			XQuery: `FOR $b in doc("cmu.xml")/cmu/Course
WHERE $b/CourseTitle = '%Database%'
RETURN $b/Lecturer`,
			Reference: "cmu", ChallengeSource: "ucsd",
			Fields: []string{"source", "course", "instructor"},
			truth: func() ([]integration.Row, error) {
				var rows []integration.Row
				cs, err := sourceCourses("cmu")
				if err != nil {
					return nil, err
				}
				for _, c := range cs {
					if !strings.Contains(c.Title, "Database") {
						continue
					}
					for _, in := range c.Instructors {
						rows = append(rows, integration.Row{
							"source": "cmu", "course": c.Number, "instructor": in.Name,
						})
					}
				}
				us, err := sourceCourses("ucsd")
				if err != nil {
					return nil, err
				}
				for _, c := range us {
					if !strings.Contains(c.Title, "Database") {
						continue
					}
					for _, in := range c.Instructors {
						if in.Name == "(not offered)" {
							continue
						}
						rows = append(rows, integration.Row{
							"source": "ucsd", "course": c.Number, "instructor": in.Name,
						})
					}
				}
				return rows, nil
			},
		},
		{
			ID: 12, Case: hetero.AttributeComposition,
			Name:      "List the title and time for computer networks courses",
			Challenge: "Extract the correct title, day and time values from the composite title column in the catalog of Brown University.",
			PaperXQuery: `FOR $b in doc("cmu.xml")/cmu/Course
WHERE $b/CourseTitle ='%Computer Networks%'
RETURN $b/Title $b/Day`,
			XQuery: `FOR $b in doc("cmu.xml")/cmu/Course
WHERE $b/CourseTitle = '%Computer Networks%'
RETURN $b/CourseTitle $b/Day $b/Time`,
			Reference: "cmu", ChallengeSource: "brown",
			Fields: []string{"source", "course", "title", "day", "time"},
			truth: func() ([]integration.Row, error) {
				var rows []integration.Row
				for _, src := range []string{"cmu", "brown"} {
					cs, err := sourceCourses(src)
					if err != nil {
						return nil, err
					}
					for _, c := range cs {
						if !strings.Contains(c.Title, "Computer Networks") {
							continue
						}
						rows = append(rows, integration.Row{
							"source": src, "course": c.Number, "title": c.Title,
							"day":  c.Days,
							"time": mapping.Minutes(c.Start).String() + "-" + mapping.Minutes(c.End).String(),
						})
					}
				}
				return rows, nil
			},
		},
	}
}

// QueryByID returns the benchmark query with the given number.
func QueryByID(id int) (*Query, error) {
	for _, q := range Queries() {
		if q.ID == id {
			return q, nil
		}
	}
	return nil, fmt.Errorf("benchmark: no query %d", id)
}
