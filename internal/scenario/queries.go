package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

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
	// ChallengeXQuery asks the same question against the challenge dialect:
	// the family's challenge query with the source's URI and parameter
	// written in as literals. The scenario mediator never compiles it; it
	// evaluates the family's plan with the two bound instead.
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

// Spec returns source i's generated query spec with its texts spelled.
func (sc *Scenario) Spec(i int) QuerySpec {
	s := sc.params(i)
	s.spellReference()
	s.ChallengeXQuery = challengeQuery(s.Case, strconv.Quote(s.Source+".xml"), "'"+s.param()+"'")
	return s
}

// params returns source i's query spec without its texts. It walks the
// source's stream only as far as the planted course the query is anchored
// on.
func (sc *Scenario) params(i int) QuerySpec {
	w := sc.walk(i)
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
// planted course; Spec and Queries spell the query texts for the
// consumers that read them.
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

// spellReference fills in the spec's name and its reference query.
// Reference queries stay inside the engine subset the canonical twelve
// use: FLWOR over one doc(), '=' with %like% patterns, starts-with,
// numeric comparison.
func (s *QuerySpec) spellReference() {
	subject := s.Subject
	refFor := "FOR $c in doc(" + strconv.Quote(s.Source+".xml") + ")/catalog/course\n"
	titleLike := "WHERE $c/title = '%" + subject + "%'\n"
	const ret = "RETURN $c"

	switch s.Case {
	case hetero.Synonyms:
		s.Name = "courses taught by " + strconv.Quote(s.Instructor)
		s.XQuery = refFor + "WHERE $c/instructor = '" + s.Instructor + "'\n" + ret
	case hetero.SimpleMapping:
		s.Name = "courses starting at " + catalog.Clock24(s.Start)
		s.XQuery = refFor + "WHERE starts-with($c/time, '" + catalog.Clock24(s.Start) + "')\n" + ret
	case hetero.UnionTypes:
		s.Name = subject + " courses (hyperlinked titles)"
		s.XQuery = refFor + titleLike + ret
	case hetero.ComplexMappings:
		s.Name = subject + " courses worth more than " + strconv.Itoa(s.Credits) + " credits"
		s.XQuery = refFor + "WHERE $c/credits > " + strconv.Itoa(s.Credits) + " and $c/title = '%" + subject + "%'\n" + ret
	case hetero.LanguageExpression:
		s.Name = subject + " courses (German source)"
		s.XQuery = refFor + titleLike + ret
	case hetero.Nulls:
		s.Name = "textbooks for " + subject + " courses"
		s.XQuery = refFor + titleLike + ret
	case hetero.VirtualColumns:
		s.Name = "entry-level " + subject + " courses"
		s.XQuery = refFor + "WHERE $c/prerequisite = 'None' and $c/title = '%" + subject + "%'\n" + ret
	case hetero.SemanticIncompatibility:
		s.Name = subject + " courses open to juniors"
		s.XQuery = refFor + "WHERE $c/title = '%" + subject + "%' and $c/restriction = '%JR%'\n" + ret
	case hetero.SameAttributeDifferentStructure:
		s.Name = "rooms for " + subject + " courses"
		s.XQuery = refFor + titleLike + ret
	case hetero.HandlingSets:
		s.Name = "instructors of " + subject + " courses"
		s.XQuery = refFor + titleLike + ret
	case hetero.AttributeNameDoesNotDefineSemantics:
		s.Name = "who teaches " + subject + ", and when"
		s.XQuery = refFor + titleLike + ret
	case hetero.AttributeComposition:
		s.Name = "meeting times of " + subject + " courses"
		s.XQuery = refFor + titleLike + ret
	}
}

// challengeQuery spells family c's challenge query around its two holes:
// uri, the source document's URI, and p, the family parameter. Both are
// XQuery expressions: the external variables $uri and $p in the family's
// plan, or a source's own literals in its spec's text. Most families only
// filter on the title; the mediator does the rest of their work (Umfang
// arithmetic, comment inference, lexicon matching, ...).
func challengeQuery(c hetero.Case, uri, p string) string {
	elem, where := "course", "$c/title = "+p
	switch c {
	case hetero.Synonyms:
		where = "$c/lecturer = " + p
	case hetero.SimpleMapping:
		where = "starts-with($c/time, " + p + ")"
	case hetero.LanguageExpression:
		elem, where = "Vorlesung", ""
	case hetero.AttributeComposition:
		where = "$c/listing = " + p
	}
	q := "FOR $c in doc(" + uri + ")/catalog/" + elem + "\n"
	if where != "" {
		q += "WHERE " + where + "\n"
	}
	return q + "RETURN $c"
}

// param is the value the spec's family plan binds to $p.
func (s *QuerySpec) param() string {
	switch s.Case {
	case hetero.Synonyms:
		return s.Instructor
	case hetero.SimpleMapping:
		return catalog.Clock12(s.Start)
	case hetero.LanguageExpression:
		return "" // the family's query has no parameter
	default:
		return "%" + s.Subject + "%"
	}
}

// challengeElements evaluates the spec's family plan over the source's
// challenge document doc, with $uri and $p bound to the source's URI and
// parameter, and returns the element items.
func (s *QuerySpec) challengeElements(doc *xmldom.Document) ([]*xmldom.Element, error) {
	plans, err := familyPlans()
	if err != nil {
		return nil, err
	}
	return evalToElements(plans[s.Case], s.Source, s.param(), doc)
}

// familyPlans compiles each family's challenge query, over the external
// variables $uri and $p, once per process on first use: a process that
// never answers a scenario cell compiles none.
var familyPlans = sync.OnceValues(func() (plans [len(familyFields)]*plan.Plan, err error) {
	for _, c := range hetero.AllCases() {
		if plans[c], err = plan.CompileQuery(challengeQuery(c, "$uri", "$p")); err != nil {
			return plans, fmt.Errorf("scenario: compile the case %d query family: %w", int(c), err)
		}
	}
	return plans, nil
})

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
	w := sc.walk(i)
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
		spec := sc.params(i)
		spec.spellReference()
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
	spec.spellReference()
	p, err := plan.CompileQuery(spec.XQuery)
	if err != nil {
		return nil, true, fmt.Errorf("scenario: compile %s: %w", spec.Source, err)
	}
	els, err := evalToElements(p, spec.Source, "", doc)
	if err != nil {
		return nil, true, err
	}
	for _, el := range els {
		rows = append(rows, refExtract(spec, el)...)
	}
	return rows, true, nil
}

// evalToElements runs a one-document plan over doc, the document of
// source, with $uri bound to the document's URI and $p to param, and
// returns the element items.
func evalToElements(p *plan.Plan, source, param string, doc *xmldom.Document) ([]*xmldom.Element, error) {
	uri := source + ".xml"
	ctx := xquery.NewContext(func(u string) (*xmldom.Document, error) {
		if u == uri {
			return doc, nil
		}
		return nil, fmt.Errorf("scenario: no document %q (source %s)", u, source)
	})
	ctx.Bind("uri", xquery.Sequence{uri})
	ctx.Bind("p", xquery.Sequence{param})
	seq, err := p.Eval(ctx)
	if err != nil {
		return nil, fmt.Errorf("scenario: eval %s: %w", source, err)
	}
	els := make([]*xmldom.Element, 0, len(seq))
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
