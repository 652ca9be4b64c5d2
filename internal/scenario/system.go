package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"thalia/internal/hetero"
	"thalia/internal/integration"
	"thalia/internal/mapping"
	"thalia/internal/xmldom"
)

// Mediator answers generated queries against the challenge dialects: a
// schema-mapping mediator in the THALIA sense, with the per-class external
// functions (clock conversion, Umfang arithmetic, lexicon lookup, ...)
// charged to the effort model the same way the canonical systems charge
// theirs.
//
// Concurrency contract: Answer is safe for concurrent use; per-call state
// lives in the call, and the shared DocSource is internally locked.
type Mediator struct {
	sc   *Scenario
	docs *DocSource
}

// NewMediator returns the scenario's mediator with a fresh DocSource.
func (sc *Scenario) NewMediator() *Mediator {
	return &Mediator{sc: sc, docs: NewDocSource(sc)}
}

// Name implements integration.System.
func (m *Mediator) Name() string { return "scenario-mediator" }

// Description implements integration.System.
func (m *Mediator) Description() string {
	return "Generated-scenario mediator: streams challenge documents through a refcounted DocSource and resolves each heterogeneity class with the benchmark's mapping functions."
}

// Docs exposes the mediator's document source for memory accounting.
func (m *Mediator) Docs() *DocSource { return m.docs }

// Answer implements integration.System: materialize the challenge
// document, evaluate the family's compiled challenge plan over it with the
// source's URI and parameter bound, shape rows with the class's mapping
// functions, release the document.
func (m *Mediator) Answer(req integration.Request) (*integration.Answer, error) {
	i, err := m.sc.Index(req.Challenge)
	if err != nil {
		return nil, err
	}
	doc, spec := m.docs.Acquire(i)
	defer m.docs.Release(i)
	els, err := spec.challengeElements(doc)
	if err != nil {
		return nil, err
	}
	var rows []integration.Row
	for _, el := range els {
		rs, err := chalExtract(spec, el)
		if err != nil {
			return nil, err
		}
		rows = append(rows, rs...)
	}
	charge := charges[spec.Case]
	return &integration.Answer{Rows: rows, Effort: charge.effort, Functions: charge.fns}, nil
}

// chalExtract shapes one challenge-dialect course element into canonical
// rows, applying the Go-side mapping work the dialect demands.
func chalExtract(spec QuerySpec, el *xmldom.Element) ([]integration.Row, error) {
	var rows []integration.Row
	course := el.ChildText("number")
	add := func(kv ...string) { rows = append(rows, newRow(spec.Source, course, kv...)) }
	title := el.ChildText("title")
	switch spec.Case {
	case hetero.Synonyms:
		for _, in := range el.ChildrenNamed("lecturer") {
			if in.Text() == spec.Instructor {
				add("instructor", in.Text())
			}
		}
	case hetero.SimpleMapping:
		start, end, err := mapping.ParseClockRange(el.ChildText("time"))
		if err != nil {
			return nil, fmt.Errorf("scenario: mediator %s: %w", spec.Source, err)
		}
		add("title", title, "time", start.String()+"-"+end.String())
	case hetero.UnionTypes:
		add("title", title)
	case hetero.ComplexMappings:
		u, err := mapping.ParseUmfang(el.ChildText("umfang"))
		if err != nil {
			return nil, fmt.Errorf("scenario: mediator %s: %w", spec.Source, err)
		}
		if u.CreditHours() > spec.Credits {
			add("title", title, "credits", strconv.Itoa(u.CreditHours()))
		}
	case hetero.LanguageExpression:
		course = el.ChildText("Nummer")
		gt := el.ChildText("Titel")
		if germanLex.ValueContains(gt, spec.Subject) {
			add("title", gt)
		}
	case hetero.Nulls:
		tb := mapping.Missing().Marker()
		if t := el.Child("textbook"); t != nil && strings.TrimSpace(t.Text()) != "" {
			tb = mapping.Present(t.Text()).Marker()
		}
		add("title", title, "textbook", tb)
	case hetero.VirtualColumns:
		if mapping.InferEntryLevel("", el.ChildText("comment")) {
			add("title", title)
		}
	case hetero.SemanticIncompatibility:
		add("title", title, "restriction", mapping.Inapplicable().Marker())
	case hetero.SameAttributeDifferentStructure:
		room := ""
		if sec := el.Child("section"); sec != nil {
			room = sec.ChildText("room")
		}
		add("title", title, "room", room)
	case hetero.HandlingSets:
		for _, name := range strings.Split(el.ChildText("instructors"), "; ") {
			add("title", title, "instructor", name)
		}
	case hetero.AttributeNameDoesNotDefineSemantics:
		for _, ch := range el.ChildElements() {
			if semester, ok := semesterColumn(ch.Name); ok {
				add("title", title, "instructor", ch.Text(), "semester", semester)
			}
		}
	case hetero.AttributeComposition:
		t, day, tm, err := decomposeListing(el.ChildText("listing"))
		if err != nil {
			return nil, fmt.Errorf("scenario: mediator %s: %w", spec.Source, err)
		}
		title = t
		add("title", t, "day", day, "time", tm)
	}
	return rows, nil
}

// seasons are the terms a semester-as-column-name element starts with.
var seasons = [...]string{"Fall", "Winter", "Spring", "Summer"}

// semesterColumn decomposes a semester-as-column-name element name, a
// season followed by exactly four ASCII digits ("Fall2003"), into the
// semester it names ("Fall 2003"). ok is false for any other name.
func semesterColumn(name string) (semester string, ok bool) {
	for _, season := range seasons {
		if year, found := strings.CutPrefix(name, season); found && len(year) == 4 && strings.Trim(year, "0123456789") == "" {
			return season + " " + year, true
		}
	}
	return "", false
}

// decomposeListing splits a composed listing value back into its parts:
// "Advanced Algorithms. MWF 13:30-14:50" → title, days, time.
func decomposeListing(v string) (title, day, tm string, err error) {
	i := strings.LastIndex(v, ". ")
	if i < 0 {
		return "", "", "", fmt.Errorf("scenario: listing %q has no schedule part", v)
	}
	title, rest := v[:i], v[i+2:]
	parts := strings.SplitN(rest, " ", 2)
	if len(parts) != 2 {
		return "", "", "", fmt.Errorf("scenario: listing %q has no time part", v)
	}
	return title, parts[0], parts[1], nil
}

// charges holds effortFor for every case, so answers share one function
// list per family (nothing downstream modifies it) instead of allocating
// one per cell.
var charges = func() (t [len(familyFields)]struct {
	effort integration.Effort
	fns    []integration.FunctionUse
}) {
	for _, c := range hetero.AllCases() {
		t[c].effort, t[c].fns = effortFor(c)
	}
	return t
}()

// effortFor charges each family the integration effort its dialect costs
// the mediator, mirroring how the paper grades the canonical systems:
// renamings are free, single-function conversions are small, dialects
// needing inference or arithmetic over composed values are moderate.
func effortFor(c hetero.Case) (integration.Effort, []integration.FunctionUse) {
	switch c {
	case hetero.Synonyms:
		return integration.EffortNone, nil
	case hetero.SimpleMapping:
		return integration.EffortSmall, []integration.FunctionUse{{Name: "to24hourRange", Complexity: 1}}
	case hetero.UnionTypes:
		return integration.EffortSmall, []integration.FunctionUse{{Name: "derefTitle", Complexity: 1}}
	case hetero.ComplexMappings:
		return integration.EffortModerate, []integration.FunctionUse{{Name: "parseUmfang", Complexity: 2}}
	case hetero.LanguageExpression:
		return integration.EffortModerate, []integration.FunctionUse{{Name: "germanLexicon", Complexity: 2}}
	case hetero.Nulls:
		return integration.EffortSmall, []integration.FunctionUse{{Name: "nullMissing", Complexity: 1}}
	case hetero.VirtualColumns:
		return integration.EffortModerate, []integration.FunctionUse{{Name: "inferEntryLevel", Complexity: 2}}
	case hetero.SemanticIncompatibility:
		return integration.EffortModerate, []integration.FunctionUse{{Name: "nullInapplicable", Complexity: 2}}
	case hetero.SameAttributeDifferentStructure:
		return integration.EffortSmall, []integration.FunctionUse{{Name: "sectionRoom", Complexity: 1}}
	case hetero.HandlingSets:
		return integration.EffortSmall, []integration.FunctionUse{{Name: "splitInstructors", Complexity: 1}}
	case hetero.AttributeNameDoesNotDefineSemantics:
		return integration.EffortModerate, []integration.FunctionUse{{Name: "semesterColumn", Complexity: 2}}
	case hetero.AttributeComposition:
		return integration.EffortModerate, []integration.FunctionUse{{Name: "decomposeListing", Complexity: 2}}
	default:
		return integration.EffortLarge, nil
	}
}
