package catalog

import (
	"fmt"
	"strings"

	"thalia/internal/hetero"
	"thalia/internal/tess"
	"thalia/internal/xmldom"
)

// Brown University (Figure 1): a simple HTML table whose Instructor column
// is a hyperlinked name and whose Title/Time column concatenates a
// (hyperlinked) course title with Brown's hour-letter and meeting-time
// notation — the union-type (case 3) and attribute-composition (case 12)
// heterogeneities. The Room column sometimes carries the lab location too.
func init() {
	courses := []Course{
		{
			Number:      "CS016",
			Title:       "Intro to Algorithms & Data Structures",
			TitleURL:    "http://www.cs.brown.edu/courses/cs016/",
			Instructors: []Instructor{{Name: "Doeppner", Home: "http://www.cs.brown.edu/~twd", First: "Thomas", Specialty: "Operating Systems"}},
			Days:        "MWF",
			Start:       11 * 60,
			End:         12 * 60,
			Room:        "CIT 227",
			Credits:     4,
		},
		{
			Number:      "CS032",
			Title:       "Intro. to Software Engineering",
			TitleURL:    "http://www.cs.brown.edu/courses/cs032/",
			Instructors: []Instructor{{Name: "Reiss", Home: "http://www.cs.brown.edu/~spr", First: "Steven", Specialty: "Software Engineering"}},
			Days:        "TTh",
			Start:       14*60 + 30,
			End:         16 * 60,
			Room:        "CIT 165",
			LabRoom:     "Labs in Sunlab",
			Credits:     4,
		},
		{
			Number:      "CS034",
			Title:       "Topics in Computing",
			Instructors: []Instructor{{Name: "Savage", Home: "http://www.cs.brown.edu/~jes", First: "John", Specialty: "Theory of Computation"}},
			Days:        "M",
			Start:       0, // irregular: time arranged, rendered as "hrs. arranged"
			End:         0,
			Room:        "CIT 506",
			Credits:     2,
		},
		{
			Number:      "CS127",
			Title:       "Intro to Databases",
			TitleURL:    "http://www.cs.brown.edu/courses/cs127/",
			Instructors: []Instructor{{Name: "Cetintemel", Home: "http://www.cs.brown.edu/~ugur", First: "Ugur", Specialty: "Database Systems"}},
			Days:        "TTh",
			Start:       13 * 60,
			End:         14*60 + 20,
			Room:        "CIT 368",
			Credits:     4,
		},
		{
			Number:      "CS168",
			Title:       "Computer Networks",
			TitleURL:    "http://www.cs.brown.edu/courses/cs168/",
			Instructors: []Instructor{{Name: "Krishnamurthi", Home: "http://www.cs.brown.edu/~sk", First: "Shriram", Specialty: "Programming Languages"}},
			Days:        "M",
			Start:       15 * 60,
			End:         17*60 + 30,
			Room:        "CIT 368",
			Credits:     4,
		},
	}
	courses = append(courses, brownify(fillerCourses("brown", "CS", 9))...)

	register(&Source{
		Name:       "brown",
		University: "Brown University",
		Country:    "USA",
		Style:      "tabular; hyperlinked instructors; title, hour letter, day and time concatenated in one Title/Time column; lab rooms inside the Room column",
		Exhibits: []hetero.Case{
			hetero.UnionTypes, hetero.SameAttributeDifferentStructure, hetero.AttributeComposition,
		},
		Courses:    courses,
		RenderHTML: renderBrown,
		Wrapper:    brownWrapper,
		Linked:     brownHomePages(courses),
	})
}

// brownHomePages renders the cached instructor home pages hyperlinked from
// the catalog (the continuation pages the paper mentions: "first name,
// specialty, etc."). Filler instructors get deterministic details.
func brownHomePages(courses []Course) map[string]string {
	pages := map[string]string{}
	for ci := range courses {
		for ii := range courses[ci].Instructors {
			in := &courses[ci].Instructors[ii]
			if in.Home == "" {
				continue
			}
			if in.First == "" {
				in.First = string(in.Name[0]) + "."
			}
			if in.Specialty == "" {
				in.Specialty = courses[ci].Title
			}
			pages[in.Home] = fmt.Sprintf(`<html><head><title>%s %s</title></head><body>
<h1>%s %s</h1>
<p>First name: <span class="first">%s</span></p>
<p>Specialty: <span class="specialty">%s</span></p>
<p>Department of Computer Science, Brown University.</p>
</body></html>
`, xmlEscape(in.First), xmlEscape(in.Name), xmlEscape(in.First), xmlEscape(in.Name),
				xmlEscape(in.First), xmlEscape(in.Specialty))
		}
	}
	return pages
}

// BrownDeepWrapper is the deep-extraction variant of Brown's wrapper: the
// Instructor column follows the hyperlink and extracts the instructor's
// name, first name and specialty from the home page, instead of returning
// inline markup. It exercises the ModeDeep extension.
func BrownDeepWrapper() *tess.Config {
	cfg := brownWrapper()
	course := cfg.Rules[0]
	for i, r := range course.Rules {
		if r.Name == "Instructor" {
			course.Rules[i] = &tess.Rule{
				Name: "Instructor", Begin: `<td>`, End: `</td>`, Mode: tess.ModeDeep,
				Rules: []*tess.Rule{
					{Name: "Name", Begin: `<h1>`, End: `</h1>`},
					{Name: "FirstName", Begin: `<span class="first">`, End: `</span>`},
					{Name: "Specialty", Begin: `<span class="specialty">`, End: `</span>`},
				},
			}
		}
	}
	return cfg
}

// brownify renumbers filler courses into Brown's zero-padded scheme and
// moves every other course's title link away to vary the union type.
func brownify(cs []Course) []Course {
	for i := range cs {
		cs[i].Number = fmt.Sprintf("CS%03d", 200+i*7)
		if i%2 == 0 {
			cs[i].TitleURL = "http://www.cs.brown.edu/courses/" + lower(cs[i].Number) + "/"
		}
	}
	return cs
}

// brownHourLetter assigns Brown's scheduling-block letter for a course.
var brownHourLetters = map[string]string{
	"CS016": "D", "CS032": "K", "CS127": "I", "CS168": "M",
}

func brownHourLetter(c *Course) string {
	if l, ok := brownHourLetters[c.Number]; ok {
		return l
	}
	return string(rune('A' + (c.Start/60+len(c.Days))%14))
}

// brownTime renders Brown's clock style: "11-12", "2:30-4", "3-5:30".
func brownTime(c *Course) string {
	if c.Start == 0 && c.End == 0 {
		return "hrs. arranged"
	}
	return brownClock(c.Start) + "-" + brownClock(c.End)
}

func brownClock(min int) string {
	h, m := min/60, min%60
	h12 := h % 12
	if h12 == 0 {
		h12 = 12
	}
	if m == 0 {
		return fmt.Sprintf("%d", h12)
	}
	return fmt.Sprintf("%d:%02d", h12, m)
}

// brownDays renders day codes in Brown's style: single-letter runs stay
// joined ("MWF") but Thursday gets a comma ("T,Th"), matching the paper's
// samples "D hr. MWF 11-12" and "K hr. T,Th 2:30-4".
func brownDays(days string) string {
	return strings.ReplaceAll(days, "TTh", "T,Th")
}

func renderBrown(s *Source) string {
	var b strings.Builder
	b.WriteString(`<html><head><title>Brown CS: Course Schedule</title></head><body>
<h2>Department of Computer Science &mdash; Course Schedule</h2>
<table border="1">
<tr><th>CrsNum</th><th>Instructor</th><th>Title/Time</th><th>Room</th></tr>
`)
	for i := range s.Courses {
		c := &s.Courses[i]
		inst := c.Instructors[0]
		title := tess.StripTags(c.Title) // titles are already plain
		titleCell := xmlEscape(title)
		if c.TitleURL != "" {
			titleCell = `<a href="` + c.TitleURL + `">` + xmlEscape(title) + `</a>`
		}
		timePart := brownHourLetter(c) + " hr. " + brownDays(c.Days) + " " + brownTime(c)
		if c.Start == 0 && c.End == 0 {
			timePart = brownTime(c)
		}
		room := c.Room
		if c.LabRoom != "" {
			room += ", " + c.LabRoom
		}
		fmt.Fprintf(&b, `<tr class="course"><td>%s</td><td><a href="%s">%s</a></td><td>%s%s</td><td>%s</td></tr>
`, c.Number, inst.Home, xmlEscape(inst.Name), titleCell, xmlEscape(timePart), xmlEscape(room))
	}
	b.WriteString("</table></body></html>\n")
	return b.String()
}

func brownWrapper() *tess.Config {
	return &tess.Config{
		Source: "brown",
		Rules: []*tess.Rule{{
			Name:   "Course",
			Begin:  `<tr class="course">`,
			End:    `</tr>`,
			Repeat: true,
			Rules: []*tess.Rule{
				{Name: "CrsNum", Begin: `<td>`, End: `</td>`},
				{Name: "Instructor", Begin: `<td>`, End: `</td>`, Mode: tess.ModeMarkup},
				{Name: "Title", Begin: `<td>`, End: `</td>`, Mode: tess.ModeMarkup},
				{Name: "Room", Begin: `<td>`, End: `</td>`},
			},
		}},
	}
}

// xmlEscape escapes text for embedding in the rendered HTML pages.
func xmlEscape(s string) string { return xmldom.EscapeText(s) }
