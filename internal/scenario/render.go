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
	doc, _ := sc.render(i, false, new(arena))
	return doc
}

// ChallengeDocument renders source i in its heterogeneity dialect: the
// reference shape transformed by the source's assigned case (see
// challengeFields).
func (sc *Scenario) ChallengeDocument(i int) *xmldom.Document {
	doc, _ := sc.render(i, true, new(arena))
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

// render builds source i's reference or challenge document in arena a,
// with its query spec, from one walk of the source's stream, each course
// rendered as it is generated. The document lives in the arena until the
// arena's next render.
func (sc *Scenario) render(i int, challenge bool, a *arena) (*xmldom.Document, QuerySpec) {
	w := sc.walk(i, true)
	root := a.reset(w.n, w.source)
	var buf [maxFields]field
	for w.more() {
		c := w.next()
		tag, fs := "course", refFields(buf[:0], &c)
		if challenge {
			tag, fs = challengeFields(fs, &c, w.cse)
		}
		root.Append(a.course(tag, fs))
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
func timeRange24(c *catalog.Course) string { return meeting(c).h24 }

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
// phrased so internal/schemamatch.DetectDocs diagnoses that case (and only
// that case) from the rendered pair. The switch is the generator's per-class
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
		edit(fs, "time", func(f *field) { f.value = meeting(c).h12 })
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

// Per-course bounds on a rendered course's storage: the course element,
// its fields and one section element; a text per field; and a child slot
// for every element but the course and for every text.
const (
	maxCourseEls   = maxFields + 2
	maxCourseTexts = maxFields
	maxCourseKids  = maxCourseEls - 1 + maxCourseTexts
)

// arena is the storage of one rendered document: the root element and its
// child list, and the course elements, texts, child slots and attributes
// below it. A fresh arena takes each course's storage in exact-size slabs,
// as per-course allocation would. A pooled arena renders document after
// document, as DocSource's recycled arenas do: it keeps slabs sized for
// whole documents, so a render into it allocates none.
type arena struct {
	pooled bool

	root    xmldom.Element
	school  [1]xmldom.Attr
	courses slab[xmldom.Node]
	els     slab[xmldom.Element]
	texts   slab[xmldom.Text]
	kids    slab[xmldom.Node]
	attrs   slab[xmldom.Attr]
}

// slab hands out runs of T from free, refilling it with an exact-size
// slab when it runs short. A pooled arena keeps its slabs' buf across
// renders.
type slab[T any] struct {
	buf, free []T
}

// reuse frees the whole of buf again. A buf too small for n values is
// first replaced by one for 2n: a scenario's documents hold Size to
// 2*Size-1 courses, so a slab sized for twice one document's courses
// holds any of them.
func (s *slab[T]) reuse(n int) {
	if len(s.buf) < n {
		s.buf = make([]T, 2*n)
	}
	s.free = s.buf
}

// take returns the next k values, full-capacity, for the caller to
// overwrite.
func (s *slab[T]) take(k int) []T {
	if len(s.free) < k {
		s.free = make([]T, k)
	}
	t := s.free[:k:k]
	s.free = s.free[k:]
	return t
}

// reset starts a render of school's n courses and returns the root
// element, with room for the n course elements.
func (a *arena) reset(n int, school string) *xmldom.Element {
	if a.pooled {
		a.courses.reuse(n)
		a.els.reuse(n * maxCourseEls)
		a.texts.reuse(n * maxCourseTexts)
		a.kids.reuse(n * maxCourseKids)
		a.attrs.reuse(n)
	}
	a.school[0] = xmldom.Attr{Name: "school", Value: school}
	a.root = xmldom.Element{Name: "catalog", Attrs: a.school[:], Children: a.courses.take(n)[:0]}
	return &a.root
}

// course builds the element for one course's final fields from the
// arena's slabs: exactly its elements, text nodes and child slots, so a
// fresh arena takes three allocations per course however many fields it
// has.
func (a *arena) course(tag string, fs []field) *xmldom.Element {
	nEls, nTexts := 1+len(fs), 0
	for _, f := range fs {
		if f.inSection {
			nEls++
		}
		if f.value != "" {
			nTexts++
		}
	}
	els := a.els.take(nEls)
	texts := a.texts.take(nTexts)
	kids := a.kids.take(nEls - 1 + nTexts)
	// elem takes the next element with room for k children; an element
	// with none keeps a nil child list, as a parsed empty element has.
	elem := func(name string, k int) *xmldom.Element {
		e := &els[0]
		els = els[1:]
		*e = xmldom.Element{Name: name}
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
			fe.Attrs = a.attrs.take(1)
			fe.Attrs[0] = xmldom.Attr{Name: "url", Value: f.url}
		}
		if f.value != "" {
			texts[0] = xmldom.Text{Data: f.value}
			fe.Append(&texts[0])
			texts = texts[1:]
		}
		parent.Append(fe)
	}
	return course
}

// poison overwrites every element name, attribute and text of the arena's
// last document with a sentinel, so a reader that outlives the document's
// release reads garbage instead of a plausible document.
func (a *arena) poison() {
	const sentinel = "\x00released"
	var walk func(e *xmldom.Element)
	walk = func(e *xmldom.Element) {
		e.Name = sentinel
		for k := range e.Attrs {
			e.Attrs[k] = xmldom.Attr{Name: sentinel, Value: sentinel}
		}
		for _, ch := range e.Children {
			switch n := ch.(type) {
			case *xmldom.Element:
				walk(n)
			case *xmldom.Text:
				n.Data = sentinel
			}
		}
	}
	walk(&a.root)
}
