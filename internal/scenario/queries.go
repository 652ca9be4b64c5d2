package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"thalia/internal/benchmark"
	"thalia/internal/catalog"
	"thalia/internal/hetero"
	"thalia/internal/integration"
	"thalia/internal/mapping"
	"thalia/internal/xmldom"
	"thalia/internal/xquery"
	"thalia/internal/xquery/plan"
)

// QuerySpec is the generated query for one source: the benchmark question
// in both dialects plus the parameters the truth computation needs. Like
// everything else it is a pure function of (seed, source index).
type QuerySpec struct {
	// Source is the source name ("s00042"); doc() URIs append ".xml".
	Source string
	// Case is the source's heterogeneity class; it selects the query family.
	Case hetero.Case
	// Name describes the question, e.g. `courses taught by "Rita Wong"`.
	Name string
	// XQuery asks the question against the reference schema — the text a
	// benchmark Request carries, and what the conformance suite evaluates
	// against the reference document.
	XQuery string
	// ChallengeXQuery asks the same question against the challenge dialect;
	// the scenario mediator compiles and runs this one.
	ChallengeXQuery string
	// Fields is the canonical result-row vocabulary for this family.
	Fields []string

	// Subject, Instructor, Start and Credits are the family parameters,
	// anchored on the source's planted course (index 0) so every query has
	// at least one answer row.
	Subject    string
	Instructor string
	Start      int
	Credits    int // exclusive lower bound for the case-4 credit filter
}

// Spec returns source i's generated query spec. It walks the source's
// stream only as far as the planted course the query is anchored on.
func (sc *Scenario) Spec(i int) QuerySpec {
	w := sc.walk(i, true)
	w.next()
	return w.spec
}

// familyFields is each query family's canonical result-row vocabulary.
// Every spec of a family shares its slice, which nothing modifies.
var familyFields = [...][]string{
	hetero.Synonyms:                            {"source", "course", "instructor"},
	hetero.SimpleMapping:                       {"source", "course", "title", "time"},
	hetero.UnionTypes:                          {"source", "course", "title"},
	hetero.ComplexMappings:                     {"source", "course", "title", "credits"},
	hetero.LanguageExpression:                  {"source", "course", "title"},
	hetero.Nulls:                               {"source", "course", "title", "textbook"},
	hetero.VirtualColumns:                      {"source", "course", "title"},
	hetero.SemanticIncompatibility:             {"source", "course", "title", "restriction"},
	hetero.SameAttributeDifferentStructure:     {"source", "course", "title", "room"},
	hetero.HandlingSets:                        {"source", "course", "title", "instructor"},
	hetero.AttributeNameDoesNotDefineSemantics: {"source", "course", "title", "instructor", "semester"},
	hetero.AttributeComposition:                {"source", "course", "title", "day", "time"},
}

// newSpec derives the query family parameters of a source from its
// planted course; spellQueries adds the query texts for the consumers that
// read them.
func newSpec(source string, cse hetero.Case, planted *catalog.Course) QuerySpec {
	return QuerySpec{
		Source:     source,
		Case:       cse,
		Subject:    subjects[courseSubject(planted)].en,
		Instructor: planted.Instructors[0].Name,
		Start:      planted.Start,
		Credits:    planted.Credits - 1,
		Fields:     familyFields[cse],
	}
}

// spellQueries fills in the spec's name and its query in both dialects.
// Reference queries stay inside the engine subset the canonical twelve
// use: FLWOR over one doc(), '=' with %like% patterns, starts-with,
// numeric comparison.
func (s *QuerySpec) spellQueries() {
	subject := s.Subject
	uri := s.Source + ".xml"
	refFor := fmt.Sprintf("FOR $c in doc(%q)/catalog/course\n", uri)
	chalFor := refFor
	if s.Case == hetero.LanguageExpression {
		chalFor = fmt.Sprintf("FOR $c in doc(%q)/catalog/Vorlesung\n", uri)
	}
	titleLike := fmt.Sprintf("WHERE $c/title = '%%%s%%'\n", subject)
	const ret = "RETURN $c"

	switch s.Case {
	case hetero.Synonyms:
		s.Name = fmt.Sprintf("courses taught by %q", s.Instructor)
		s.XQuery = refFor + fmt.Sprintf("WHERE $c/instructor = '%s'\n", s.Instructor) + ret
		s.ChallengeXQuery = chalFor + fmt.Sprintf("WHERE $c/lecturer = '%s'\n", s.Instructor) + ret
	case hetero.SimpleMapping:
		s.Name = fmt.Sprintf("courses starting at %s", catalog.Clock24(s.Start))
		s.XQuery = refFor + fmt.Sprintf("WHERE starts-with($c/time, '%s')\n", catalog.Clock24(s.Start)) + ret
		s.ChallengeXQuery = chalFor + fmt.Sprintf("WHERE starts-with($c/time, '%s')\n", catalog.Clock12(s.Start)) + ret
	case hetero.UnionTypes:
		s.Name = fmt.Sprintf("%s courses (hyperlinked titles)", subject)
		s.XQuery = refFor + titleLike + ret
		s.ChallengeXQuery = chalFor + titleLike + ret
	case hetero.ComplexMappings:
		s.Name = fmt.Sprintf("%s courses worth more than %d credits", subject, s.Credits)
		s.XQuery = refFor + fmt.Sprintf("WHERE $c/credits > %d and $c/title = '%%%s%%'\n", s.Credits, subject) + ret
		s.ChallengeXQuery = chalFor + titleLike + ret // umfang arithmetic happens in the mediator
	case hetero.LanguageExpression:
		s.Name = fmt.Sprintf("%s courses (German source)", subject)
		s.XQuery = refFor + titleLike + ret
		s.ChallengeXQuery = chalFor + ret // lexicon matching happens in the mediator
	case hetero.Nulls:
		s.Name = fmt.Sprintf("textbooks for %s courses", subject)
		s.XQuery = refFor + titleLike + ret
		s.ChallengeXQuery = chalFor + titleLike + ret
	case hetero.VirtualColumns:
		s.Name = fmt.Sprintf("entry-level %s courses", subject)
		s.XQuery = refFor + fmt.Sprintf("WHERE $c/prerequisite = 'None' and $c/title = '%%%s%%'\n", subject) + ret
		s.ChallengeXQuery = chalFor + titleLike + ret // comment inference happens in the mediator
	case hetero.SemanticIncompatibility:
		s.Name = fmt.Sprintf("%s courses open to juniors", subject)
		s.XQuery = refFor + fmt.Sprintf("WHERE $c/title = '%%%s%%' and $c/restriction = '%%JR%%'\n", subject) + ret
		s.ChallengeXQuery = chalFor + titleLike + ret
	case hetero.SameAttributeDifferentStructure:
		s.Name = fmt.Sprintf("rooms for %s courses", subject)
		s.XQuery = refFor + titleLike + ret
		s.ChallengeXQuery = chalFor + titleLike + ret
	case hetero.HandlingSets:
		s.Name = fmt.Sprintf("instructors of %s courses", subject)
		s.XQuery = refFor + titleLike + ret
		s.ChallengeXQuery = chalFor + titleLike + ret
	case hetero.AttributeNameDoesNotDefineSemantics:
		s.Name = fmt.Sprintf("who teaches %s, and when", subject)
		s.XQuery = refFor + titleLike + ret
		s.ChallengeXQuery = chalFor + titleLike + ret
	case hetero.AttributeComposition:
		s.Name = fmt.Sprintf("meeting times of %s courses", subject)
		s.XQuery = refFor + titleLike + ret
		s.ChallengeXQuery = chalFor + fmt.Sprintf("WHERE $c/listing = '%%%s%%'\n", subject) + ret
	}
}

// germanLex is the shared (read-only) schema lexicon; truth and mediator
// resolve case-5 values through the same dictionary the canonical testbed
// uses.
var germanLex = mapping.NewGermanLexicon()

// Truth computes source i's expected answer from the ground-truth courses —
// no documents, no XQuery, so the conformance suite can check generator,
// engine and mediator against it independently. It scores each course as
// one walk of the source generates it.
func (sc *Scenario) Truth(i int) []integration.Row {
	var rows []integration.Row
	w := sc.walk(i, false)
	for w.more() {
		c := w.next()
		rows = truthRows(rows, &w.spec, &c)
	}
	return rows
}

// truthRows appends the expected rows course c contributes to spec's
// answer.
func truthRows(rows []integration.Row, spec *QuerySpec, c *catalog.Course) []integration.Row {
	add := func(kv ...string) { rows = append(rows, newRow(spec.Source, c.Number, kv...)) }
	titleMatch := strings.Contains(c.Title, spec.Subject)
	switch spec.Case {
	case hetero.Synonyms:
		for _, in := range c.Instructors {
			if in.Name == spec.Instructor {
				add("instructor", in.Name)
			}
		}
	case hetero.SimpleMapping:
		if c.Start == spec.Start {
			add("title", c.Title, "time", timeRange24(c))
		}
	case hetero.UnionTypes:
		if titleMatch {
			add("title", c.Title)
		}
	case hetero.ComplexMappings:
		if c.Credits > spec.Credits && titleMatch {
			add("title", c.Title, "credits", strconv.Itoa(c.Credits))
		}
	case hetero.LanguageExpression:
		if germanLex.ValueContains(c.GermanTitle, spec.Subject) {
			add("title", c.GermanTitle)
		}
	case hetero.Nulls:
		if titleMatch {
			tb := mapping.Missing().Marker()
			if strings.TrimSpace(c.Textbook) != "" {
				tb = mapping.Present(c.Textbook).Marker()
			}
			add("title", c.Title, "textbook", tb)
		}
	case hetero.VirtualColumns:
		if titleMatch && mapping.InferEntryLevel("", c.Comment) {
			add("title", c.Title)
		}
	case hetero.SemanticIncompatibility:
		if titleMatch {
			add("title", c.Title, "restriction", mapping.Inapplicable().Marker())
		}
	case hetero.SameAttributeDifferentStructure:
		if titleMatch {
			add("title", c.Title, "room", c.Room)
		}
	case hetero.HandlingSets:
		if titleMatch {
			for _, in := range c.Instructors {
				add("title", c.Title, "instructor", in.Name)
			}
		}
	case hetero.AttributeNameDoesNotDefineSemantics:
		if titleMatch {
			add("title", c.Title, "instructor", c.Instructors[0].Name, "semester", c.Semester)
		}
	case hetero.AttributeComposition:
		if titleMatch {
			add("title", c.Title, "day", c.Days, "time", timeRange24(c))
		}
	}
	return rows
}

// newRow builds one canonical answer row: the source and course keys plus
// alternating field names and values.
func newRow(source, course string, kv ...string) integration.Row {
	r := make(integration.Row, 2+len(kv)/2)
	r["source"], r["course"] = source, course
	for k := 0; k+1 < len(kv); k += 2 {
		r[kv[k]] = kv[k+1]
	}
	return r
}

// Queries materializes the workload as benchmark queries: query i+1 asks
// source i's question, with Truth(i) as its expected answer. The slice is
// O(sources) metadata (strings); documents are NOT built here — a streaming
// runner materializes them per cell through the mediator's DocSource.
func (sc *Scenario) Queries() []*benchmark.Query {
	qs := make([]*benchmark.Query, sc.p.Sources)
	for i := range qs {
		i := i
		spec := sc.Spec(i)
		qs[i] = benchmark.NewQuery(i+1, spec.Case, spec.Name, spec.XQuery,
			spec.Source+"-ref", spec.Source, spec.Fields,
			func() ([]integration.Row, error) { return sc.Truth(i), nil })
	}
	return qs
}

// RefRows evaluates source i's reference-shaped query against its
// reference document with the compiled-plan engine and extracts canonical
// rows — the differential leg proving that generated query text, rendered
// document and computed truth all agree. checkable is false for the two
// families whose truth bakes in mediation knowledge the reference document
// cannot express (case 5: German values; case 8: inapplicable nulls).
func (sc *Scenario) RefRows(i int) (rows []integration.Row, checkable bool, err error) {
	if c := sc.Case(i); c == hetero.LanguageExpression || c == hetero.SemanticIncompatibility {
		return nil, false, nil
	}
	doc, spec := sc.render(i, false, new(arena))
	els, err := evalToElements(spec.XQuery, spec.Source, doc)
	if err != nil {
		return nil, true, err
	}
	for _, el := range els {
		rows = append(rows, refExtract(spec, el)...)
	}
	return rows, true, nil
}

// evalToElements compiles and runs a one-document query, returning the
// element items.
func evalToElements(query, source string, doc *xmldom.Document) ([]*xmldom.Element, error) {
	p, err := plan.CompileQuery(query)
	if err != nil {
		return nil, fmt.Errorf("scenario: compile %s: %w", source, err)
	}
	uri := source + ".xml"
	ctx := xquery.NewContext(func(u string) (*xmldom.Document, error) {
		if u == uri {
			return doc, nil
		}
		return nil, fmt.Errorf("scenario: no document %q (source %s)", u, source)
	})
	seq, err := p.Eval(ctx)
	if err != nil {
		return nil, fmt.Errorf("scenario: eval %s: %w", source, err)
	}
	var els []*xmldom.Element
	for _, item := range seq {
		if el, ok := item.(*xmldom.Element); ok {
			els = append(els, el)
		}
	}
	return els, nil
}

// refExtract shapes one reference-dialect course element into canonical
// rows for the spec's family.
func refExtract(spec QuerySpec, el *xmldom.Element) []integration.Row {
	var rows []integration.Row
	course := el.ChildText("number")
	add := func(kv ...string) { rows = append(rows, newRow(spec.Source, course, kv...)) }
	title := el.ChildText("title")
	switch spec.Case {
	case hetero.Synonyms:
		for _, in := range el.ChildrenNamed("instructor") {
			if in.Text() == spec.Instructor {
				add("instructor", in.Text())
			}
		}
	case hetero.SimpleMapping:
		add("title", title, "time", el.ChildText("time"))
	case hetero.UnionTypes:
		add("title", title)
	case hetero.ComplexMappings:
		add("title", title, "credits", el.ChildText("credits"))
	case hetero.Nulls:
		add("title", title, "textbook", el.ChildText("textbook"))
	case hetero.VirtualColumns:
		add("title", title)
	case hetero.SameAttributeDifferentStructure:
		add("title", title, "room", el.ChildText("room"))
	case hetero.HandlingSets:
		for _, in := range el.ChildrenNamed("instructor") {
			add("title", title, "instructor", in.Text())
		}
	case hetero.AttributeNameDoesNotDefineSemantics:
		add("title", title, "instructor", el.ChildText("instructor"), "semester", el.ChildText("semester"))
	case hetero.AttributeComposition:
		add("title", title, "day", el.ChildText("days"), "time", el.ChildText("time"))
	}
	return rows
}
