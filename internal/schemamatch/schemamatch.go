// Package schemamatch implements an automatic schema matcher over the
// THALIA testbed, in the spirit of the matching literature the paper
// surveys (Rahm & Bernstein's taxonomy): hybrid name-based matching
// (synonym dictionary, German-English lexicon, string similarity) combined
// with instance-based matching (value-pattern classifiers over the
// extracted documents).
//
// Its role in the reproduction is to quantify the paper's argument: the
// synonym heterogeneity (case 1) and parts of the language heterogeneity
// (case 5) yield to automatic matching, and instance evidence can even
// flag attribute names that do not define their semantics (case 11) — but
// value transformations (cases 2, 4), missing-data semantics (6-8) and the
// structural cases still demand the programmatic mappings the benchmark
// charges for.
//
// The same matcher profiles documents for the heterogeneity detector,
// DetectDocs, which reports the cases that separate two documents.
package schemamatch

import (
	"sort"
	"strings"

	"thalia/internal/mapping"
	"thalia/internal/xmldom"
	"thalia/internal/xsd"
)

// Concept is a global-schema concept that source elements are matched to.
type Concept string

// The global concept vocabulary for course catalogs.
const (
	ConceptCourse     Concept = "course"
	ConceptNumber     Concept = "number"
	ConceptTitle      Concept = "title"
	ConceptInstructor Concept = "instructor"
	ConceptTime       Concept = "time"
	ConceptDay        Concept = "day"
	ConceptRoom       Concept = "room"
	ConceptCredits    Concept = "credits"
	ConceptTextbook   Concept = "textbook"
	ConceptPrereq     Concept = "prerequisite"
	ConceptRestrict   Concept = "restriction"
	ConceptSection    Concept = "section"
	ConceptUnknown    Concept = "?"
)

// Candidate is one proposed correspondence with its score and evidence.
type Candidate struct {
	// Element is the source element name.
	Element string
	// Concept is the proposed global concept.
	Concept Concept
	// Score in [0,1]; higher is more confident.
	Score float64
	// Evidence names the matcher that contributed most: "name",
	// "dictionary", "lexicon", or "instance".
	Evidence string
}

// Matcher matches source schemas against the global concept vocabulary.
type Matcher struct {
	dict     map[string]Concept
	lexicons []*mapping.Lexicon
}

// New returns a matcher with the built-in synonym dictionary and the
// German-English and French-English lexicons.
func New() *Matcher {
	m := &Matcher{
		dict:     map[string]Concept{},
		lexicons: []*mapping.Lexicon{mapping.NewGermanLexicon(), mapping.NewFrenchLexicon()},
	}
	add := func(c Concept, names ...string) {
		for _, n := range names {
			m.dict[strings.ToLower(n)] = c
		}
	}
	// The dictionary holds English vocabulary only; German terms resolve
	// through the lexicon (the automatable slice of case 5).
	add(ConceptCourse, "course", "offering", "listing", "subject", "unit", "paper")
	add(ConceptNumber, "number", "num", "crsnum", "coursenum", "coursenumber", "courseid", "coursecode",
		"code", "crn", "id", "catalog", "ccn", "sln", "nr", "papercode", "subjectcode")
	add(ConceptTitle, "title", "coursetitle", "coursename", "name", "descr", "heading",
		"subjectname", "subjecttitle", "papertitle", "unittitle")
	add(ConceptInstructor, "instructor", "lecturer", "teacher", "prof", "professor",
		"faculty", "staff", "who", "leader", "coordinator", "reader", "supervisor", "instr")
	add(ConceptTime, "time", "times", "meets", "meetingtime", "timeslot", "schedule",
		"session", "when", "hours", "timetable", "slot", "contact")
	add(ConceptDay, "day", "days")
	add(ConceptRoom, "room", "location", "venue", "hall", "bldg", "place",
		"where", "theatre", "lecturehall")
	add(ConceptCredits, "credits", "units", "credithours")
	add(ConceptTextbook, "textbook", "text", "book")
	add(ConceptPrereq, "prerequisite", "prereq", "prerequisites")
	add(ConceptRestrict, "restrictions", "restriction", "restricted")
	add(ConceptSection, "section", "sections", "meeting", "sec")
	return m
}

// MatchName proposes a concept for one element name using name evidence
// only.
func (m *Matcher) MatchName(name string) Candidate {
	key := strings.ToLower(name)
	if c, ok := m.dict[key]; ok {
		return Candidate{Element: name, Concept: c, Score: 1.0, Evidence: "dictionary"}
	}
	// Foreign-language term? Translate then retry the dictionary.
	if lex, c := m.lexiconFor(key); lex != nil {
		return Candidate{Element: name, Concept: c, Score: 0.9, Evidence: "lexicon"}
	}
	// String similarity against every dictionary entry; of equally similar
	// entries the alphabetically first wins, so the match is deterministic.
	best := Candidate{Element: name, Concept: ConceptUnknown, Evidence: "name"}
	bestEntry := ""
	for entry, c := range m.dict {
		s := similarity(key, entry)
		if s > best.Score || s == best.Score && entry < bestEntry {
			best.Concept = c
			best.Score = s
			bestEntry = entry
		}
	}
	if best.Score < 0.6 {
		return Candidate{Element: name, Concept: ConceptUnknown, Score: 0, Evidence: "name"}
	}
	best.Score *= 0.8 // similarity evidence is weaker than a dictionary hit
	return best
}

// lexiconFor returns the lexicon that translates name into a dictionary
// word, with that word's concept, or nil when no lexicon does.
func (m *Matcher) lexiconFor(name string) (*mapping.Lexicon, Concept) {
	for _, lex := range m.lexicons {
		if en, ok := lex.ToEnglish(name); ok {
			if c, ok := m.dict[strings.ToLower(en)]; ok {
				return lex, c
			}
		}
	}
	return nil, ConceptUnknown
}

// MatchInstances proposes a concept from value evidence: the fraction of
// sample values each pattern classifier accepts.
func (m *Matcher) MatchInstances(name string, values []string) Candidate {
	// Instance matchers ignore obvious null markers before voting.
	var vals []string
	for _, v := range values {
		switch strings.TrimSpace(v) {
		case "", "-", "N/A", "TBA", "(not offered)":
			continue
		}
		vals = append(vals, v)
	}
	values = vals
	if len(values) == 0 {
		return Candidate{Element: name, Concept: ConceptUnknown, Score: 0, Evidence: "instance"}
	}
	type vote struct {
		c Concept
		f func(string) bool
	}
	votes := []vote{
		{ConceptTime, looksLikeTime},
		{ConceptNumber, looksLikeCourseNumber},
		{ConceptInstructor, looksLikePersonName},
		{ConceptRoom, looksLikeRoom},
		{ConceptCredits, looksLikeSmallInt},
	}
	best := Candidate{Element: name, Concept: ConceptUnknown, Evidence: "instance"}
	for _, v := range votes {
		hits := 0
		for _, val := range values {
			if v.f(val) {
				hits++
			}
		}
		score := float64(hits) / float64(len(values))
		if score > best.Score {
			best.Concept = v.c
			best.Score = score
		}
	}
	if best.Score < 0.6 {
		return Candidate{Element: name, Concept: ConceptUnknown, Score: 0, Evidence: "instance"}
	}
	return best
}

// Match combines name and instance evidence for one element: a confident
// dictionary hit wins; otherwise instance evidence may override weak name
// evidence — which is exactly what exposes case 11, where the name
// ("Fall2003") says nothing but the values are person names.
func (m *Matcher) Match(name string, values []string) Candidate {
	byName := m.MatchName(name)
	if byName.Score >= 0.9 {
		return byName
	}
	if byInst := m.MatchInstances(name, values); byInst.Score > byName.Score {
		return byInst
	}
	return byName
}

// SchemaMatch matches every leaf element declaration of a source schema,
// sampling instance values from the document.
func (m *Matcher) SchemaMatch(s *xsd.Schema, doc *xmldom.Document) []Candidate {
	samples := map[string][]string{}
	collect(doc.Root, samples)
	var out []Candidate
	seen := map[string]bool{}
	var walk func(d *xsd.ElementDecl)
	walk = func(d *xsd.ElementDecl) {
		if len(d.Children) == 0 && !seen[d.Name] && d != s.Root {
			seen[d.Name] = true
			out = append(out, m.Match(d.Name, samples[d.Name]))
		}
		for _, c := range d.Children {
			walk(c)
		}
	}
	walk(s.Root)
	sort.Slice(out, func(i, j int) bool { return out[i].Element < out[j].Element })
	return out
}

func collect(el *xmldom.Element, samples map[string][]string) {
	for _, c := range el.ChildElements() {
		if len(c.ChildElements()) == 0 {
			if v := c.Text(); v != "" && len(samples[c.Name]) < 20 {
				samples[c.Name] = append(samples[c.Name], v)
			}
		}
		collect(c, samples)
	}
}

// similarity is a normalized Levenshtein similarity plus a containment
// bonus (e.g. "coursetitle" vs "title").
func similarity(a, b string) float64 {
	if a == b {
		return 1
	}
	if len(a) >= 3 && len(b) >= 3 && (strings.Contains(a, b) || strings.Contains(b, a)) {
		shorter, longer := len(a), len(b)
		if shorter > longer {
			shorter, longer = longer, shorter
		}
		return 0.7 + 0.3*float64(shorter)/float64(longer)
	}
	d := levenshtein(a, b)
	max := len(a)
	if len(b) > max {
		max = len(b)
	}
	if max == 0 {
		return 0
	}
	return 1 - float64(d)/float64(max)
}

func levenshtein(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = minInt(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func minInt(vals ...int) int {
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}
