package scenario

import (
	"strconv"
	"strings"

	"thalia/internal/catalog"
	"thalia/internal/hetero"
	"thalia/internal/xmldom"
)

// ReferenceDocument renders source i in the benchmark's reference shape:
// <catalog school="sNNNNN"> of <course> records with number, title, one
// <instructor> per instructor, days, 24-hour time range, room, credits,
// prerequisite, textbook (element always present, possibly empty),
// restriction, semester and comment.
func (sc *Scenario) ReferenceDocument(i int) *xmldom.Document {
	doc, _ := sc.render(i, false)
	return doc
}

// ChallengeDocument renders source i in its heterogeneity dialect: the
// reference shape transformed by the source's assigned case (see
// challengeFields).
func (sc *Scenario) ChallengeDocument(i int) *xmldom.Document {
	doc, _ := sc.render(i, true)
	return doc
}

// ChallengeXML renders source i's challenge document as an XML string —
// the fuzz targets parse this back to prove generated catalogs are
// well-formed.
func (sc *Scenario) ChallengeXML(i int) string {
	var b strings.Builder
	_ = sc.ChallengeDocument(i).WriteTo(&b, xmldom.WriteOptions{Indent: "  "})
	return b.String()
}

// render builds source i's reference or challenge document and its query
// spec from one walk of the source's stream, each course rendered as it is
// generated.
func (sc *Scenario) render(i int, challenge bool) (*xmldom.Document, QuerySpec) {
	w := sc.walk(i)
	root := xmldom.NewElement("catalog").SetAttr("school", sc.Name(i))
	root.Children = make([]xmldom.Node, 0, w.n)
	var buf [maxFields]field
	for w.more() {
		c := w.next()
		tag, fs := "course", refFields(buf[:0], &c)
		if challenge {
			tag, fs = challengeFields(fs, &c, w.cse)
		}
		root.Append(courseElement(tag, fs))
	}
	return xmldom.NewDocument(root), w.spec
}

// field is one child element of a rendered course: name holding the text
// value (no text node when value is empty), with a url attribute when url
// is set, wrapped in a <section> element when inSection is set.
type field struct {
	name, value, url string
	inSection        bool
}

// maxFields bounds a course's field count: twelve reference fields with a
// second instructor, plus the one field a dialect may append.
const maxFields = 14

// timeRange24 renders a course's meeting time in the reference spelling.
func timeRange24(c *catalog.Course) string {
	var b [16]byte
	s := append(catalog.AppendClock24(b[:0], c.Start), '-')
	return string(catalog.AppendClock24(s, c.End))
}

// refFields appends course c's reference-shaped fields to fs.
func refFields(fs []field, c *catalog.Course) []field {
	fs = append(fs, field{name: "number", value: c.Number}, field{name: "title", value: c.Title})
	for _, in := range c.Instructors {
		fs = append(fs, field{name: "instructor", value: in.Name})
	}
	return append(fs,
		field{name: "days", value: c.Days},
		field{name: "time", value: timeRange24(c)},
		field{name: "room", value: c.Room},
		field{name: "credits", value: strconv.Itoa(c.Credits)},
		field{name: "prerequisite", value: c.Prereq},
		field{name: "textbook", value: c.Textbook},
		field{name: "restriction", value: c.Restrict},
		field{name: "semester", value: c.Semester},
		field{name: "comment", value: c.Comment},
	)
}

// challengeFields transforms a course's reference fields into the dialect
// of the given heterogeneity case and returns the course element's name
// with them. Each arm realizes exactly one of the paper's twelve cases,
// phrased so internal/hetero.DetectDocs diagnoses that case (and only that
// case) from the rendered pair. The switch is the generator's per-class
// dispatch — every hetero.Case must have an arm here (enforced by the
// scenariocoverage vet analyzer).
func challengeFields(fs []field, c *catalog.Course, cse hetero.Case) (string, []field) {
	tag := "course"
	switch cse {
	case hetero.Synonyms:
		// Case 1: same attribute, different name.
		rename(fs, "instructor", "lecturer")
	case hetero.SimpleMapping:
		// Case 2: same attribute, 12-hour clock spelling.
		edit(fs, "time", func(f *field) { f.value = catalog.Clock12(c.Start) + "-" + catalog.Clock12(c.End) })
	case hetero.UnionTypes:
		// Case 3: the title gains an attribute (hyperlink), a union type.
		edit(fs, "title", func(f *field) { f.url = c.TitleURL })
	case hetero.ComplexMappings:
		// Case 4: credits spelled as an ETH-style workload ("2V1U").
		lecture := c.Credits - 1
		if lecture < 1 {
			lecture = 1
		}
		fs = remove(fs, "credits")
		fs = append(fs, field{name: "umfang", value: strconv.Itoa(lecture) + "V" + strconv.Itoa(c.Credits-lecture) + "U"})
	case hetero.LanguageExpression:
		// Case 5: German schema and German title value.
		tag = "Vorlesung"
		rename(fs, "number", "Nummer")
		rename(fs, "instructor", "Dozent")
		rename(fs, "time", "Zeit")
		rename(fs, "room", "Raum")
		rename(fs, "semester", "Semester")
		edit(fs, "title", func(f *field) { *f = field{name: "Titel", value: c.GermanTitle} })
	case hetero.Nulls:
		// Case 6: a missing textbook drops the element entirely.
		if strings.TrimSpace(c.Textbook) == "" {
			fs = remove(fs, "textbook")
		}
	case hetero.VirtualColumns:
		// Case 7: no prerequisite column; the comment carries the info.
		fs = remove(fs, "prerequisite")
	case hetero.SemanticIncompatibility:
		// Case 8: student classification does not exist in this world.
		fs = remove(fs, "restriction")
	case hetero.SameAttributeDifferentStructure:
		// Case 9: the room moves under a section element.
		fs = remove(fs, "room")
		fs = append(fs, field{name: "room", value: c.Room, inSection: true})
	case hetero.HandlingSets:
		// Case 10: the instructor set joins into one set-valued attribute.
		fs = remove(fs, "instructor")
		names := make([]string, len(c.Instructors))
		for k, in := range c.Instructors {
			names[k] = in.Name
		}
		fs = append(fs, field{name: "instructors", value: strings.Join(names, "; ")})
	case hetero.AttributeNameDoesNotDefineSemantics:
		// Case 11: the semester becomes the column NAME holding the
		// instructor — the value lives in the schema.
		fs = remove(fs, "instructor")
		fs = remove(fs, "semester")
		fs = append(fs, field{name: strings.ReplaceAll(c.Semester, " ", ""), value: c.Instructors[0].Name})
	case hetero.AttributeComposition:
		// Case 12: title, days and time compose into one listing value.
		fs = remove(fs, "title")
		fs = remove(fs, "days")
		fs = remove(fs, "time")
		fs = append(fs, field{name: "listing", value: c.Title + ". " + c.Days + " " + timeRange24(c)})
	}
	return tag, fs
}

// edit applies change to every field called name.
func edit(fs []field, name string, change func(*field)) {
	for k := range fs {
		if fs[k].name == name {
			change(&fs[k])
		}
	}
}

// rename renames every field called from to to.
func rename(fs []field, from, to string) {
	edit(fs, from, func(f *field) { f.name = to })
}

// remove drops every field called name, keeping the others in order.
func remove(fs []field, name string) []field {
	out := fs[:0]
	for _, f := range fs {
		if f.name != name {
			out = append(out, f)
		}
	}
	return out
}

// courseElement builds the element for one course's final fields. Its
// elements, text nodes and child lists come from three slabs sized exactly
// for the course, so a course costs three allocations however many fields
// it has.
func courseElement(tag string, fs []field) *xmldom.Element {
	nEls, nTexts := 1+len(fs), 0
	for _, f := range fs {
		if f.inSection {
			nEls++
		}
		if f.value != "" {
			nTexts++
		}
	}
	els := make([]xmldom.Element, nEls)
	texts := make([]xmldom.Text, nTexts)
	kids := make([]xmldom.Node, nEls-1+nTexts)
	// elem takes the next element with room for k children; an element
	// with none keeps a nil child list, as a parsed empty element has.
	elem := func(name string, k int) *xmldom.Element {
		e := &els[0]
		els = els[1:]
		e.Name = name
		if k > 0 {
			e.Children = kids[:0:k]
			kids = kids[k:]
		}
		return e
	}
	course := elem(tag, len(fs))
	for _, f := range fs {
		parent := course
		if f.inSection {
			parent = elem("section", 1)
			course.Append(parent)
		}
		k := 0
		if f.value != "" {
			k = 1
		}
		fe := elem(f.name, k)
		if f.url != "" {
			fe.Attrs = []xmldom.Attr{{Name: "url", Value: f.url}}
		}
		if f.value != "" {
			texts[0].Data = f.value
			fe.Append(&texts[0])
			texts = texts[1:]
		}
		parent.Append(fe)
	}
	return course
}
