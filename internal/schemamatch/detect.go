package schemamatch

import (
	"fmt"
	"slices"
	"strings"
	"unicode"

	"thalia/internal/hetero"
	"thalia/internal/mapping"
	"thalia/internal/xmldom"
)

// Detection is one heterogeneity a document pair exhibits, with the
// evidence that triggered it.
type Detection struct {
	Case     hetero.Case
	Evidence string
}

// DetectDocs reports which of the twelve heterogeneity cases (Section 3 of
// the paper) separate a challenge document from a reference document of
// the same domain — the paper's manual classification, operationalized.
// Both documents are read as catalogs: the root's child elements are the
// records, their leaves the attributes. Each document is profiled once,
// every leaf element matched to a global concept by dictionary, lexicon,
// name similarity or instance evidence, and one rule per case compares the
// two profiles. Every rule fires only on a difference between them, so a
// document checked against itself reports nothing. The detections are
// sorted by case, at most one per case.
func DetectDocs(ref, chal *xmldom.Document) []Detection {
	if ref == nil || ref.Root == nil || chal == nil || chal.Root == nil {
		return nil
	}
	m := New()
	a, b := m.profile(ref), m.profile(chal)
	var out []Detection
	for _, r := range rules {
		if evidence := r.rule(a, b); evidence != "" {
			out = append(out, Detection{Case: r.c, Evidence: evidence})
		}
	}
	return out
}

// profile is what one document says about each concept it matches.
type profile struct {
	records  int
	record   string           // the first record's element name
	language *mapping.Lexicon // lexicon translating record, nil for English
	concepts map[Concept]*conceptProfile
	// mentioned holds the concepts that free text (the values of leaves
	// matching no concept) names.
	mentioned map[Concept]bool
	// composed is an element whose value composes text with a schedule,
	// "" if none does.
	composed string
}

// conceptProfile aggregates the leaf elements matched to one concept.
type conceptProfile struct {
	dictNames        []string // lowercased names the dictionary maps here
	valueOnly        []string // names that do not name the concept
	named            bool     // some element's name alone maps to the concept
	depths           uint64   // bit d set: an element d levels below the record
	values           []string // the non-empty values, in document order
	linked           bool     // some element carries an attribute or a hyperlink
	repeated         bool     // some record holds two same-named elements
	present, filled  int      // records with an element, with a non-empty one
	last, lastFilled int      // the record each count last counted
}

// leaf is one attribute value of a record.
type leaf struct {
	record, depth int
	name, value   string
	linked        bool
}

// profile reads doc as a catalog of records and matches each distinct leaf
// element name once, on up to 20 of its non-empty values.
func (m *Matcher) profile(doc *xmldom.Document) *profile {
	records := doc.Root.ChildElements()
	p := &profile{records: len(records), concepts: map[Concept]*conceptProfile{}, mentioned: map[Concept]bool{}}
	if len(records) > 0 {
		p.record = records[0].Name
		p.language, _ = m.lexiconFor(records[0].Name)
	}
	var leaves []leaf
	var walk func(el *xmldom.Element, record, depth int)
	walk = func(el *xmldom.Element, record, depth int) {
		for _, c := range el.ChildElements() {
			isLeaf, mixed := effectiveLeaf(c)
			if !isLeaf {
				walk(c, record, depth+1)
				continue
			}
			leaves = append(leaves, leaf{record: record, depth: depth, name: c.Name,
				value: strings.TrimSpace(c.DeepText()), linked: mixed || len(c.Attrs) > 0})
		}
	}
	for i, r := range records {
		walk(r, i, 1)
	}

	samples := map[string][]string{}
	var names []string
	for _, l := range leaves {
		s, seen := samples[l.name]
		if !seen {
			names = append(names, l.name)
		}
		if l.value != "" && len(s) < 20 {
			s = append(s, l.value)
		}
		samples[l.name] = s
	}
	slices.Sort(names)
	concept := map[string]Concept{}
	for _, name := range names {
		cand := m.Match(name, samples[name])
		concept[name] = cand.Concept
		if cand.Concept == ConceptUnknown {
			continue
		}
		cp := p.concepts[cand.Concept]
		if cp == nil {
			cp = &conceptProfile{last: -1, lastFilled: -1}
			p.concepts[cand.Concept] = cp
		}
		switch {
		case cand.Evidence == "dictionary":
			cp.dictNames = append(cp.dictNames, strings.ToLower(name))
			cp.named = true
		case cand.Evidence == "instance" && m.MatchName(name).Concept != cand.Concept:
			cp.valueOnly = append(cp.valueOnly, name)
		default:
			cp.named = true
		}
	}

	perRecord := map[string]int{}
	for i, l := range leaves {
		if i > 0 && leaves[i-1].record != l.record {
			clear(perRecord)
		}
		perRecord[l.name]++
		if p.composed == "" && composed(l.value) {
			p.composed = l.name
		}
		cp := p.concepts[concept[l.name]]
		if cp == nil {
			m.noteMentions(p.mentioned, l.value)
			continue
		}
		cp.depths |= 1 << min(l.depth, 63)
		cp.linked = cp.linked || l.linked
		cp.repeated = cp.repeated || perRecord[l.name] > 1
		if cp.last != l.record {
			cp.last = l.record
			cp.present++
		}
		if l.value != "" {
			cp.values = append(cp.values, l.value)
			if cp.lastFilled != l.record {
				cp.lastFilled = l.record
				cp.filled++
			}
		}
	}
	return p
}

// noteMentions adds to mentioned every concept a dictionary word of the
// free-text value names, and prerequisites when the value is an
// entry-level phrasing ("First course in sequence") that reads as none.
func (m *Matcher) noteMentions(mentioned map[Concept]bool, value string) {
	for _, w := range strings.FieldsFunc(value, func(r rune) bool { return !unicode.IsLetter(r) }) {
		if c, ok := m.dict[strings.ToLower(w)]; ok {
			mentioned[c] = true
		}
	}
	if mapping.InferEntryLevel("", value) {
		mentioned[ConceptPrereq] = true
	}
}

// effectiveLeaf reports whether el is a leaf for profiling purposes: no
// child elements, or only anchor children (a markup-mixed value).
func effectiveLeaf(el *xmldom.Element) (leaf, mixed bool) {
	children := el.ChildElements()
	if len(children) == 0 {
		return true, false
	}
	for _, c := range children {
		if c.Name != "a" {
			return false, false
		}
	}
	return true, true
}

// rules holds one rule per case, in case order. A rule compares the
// reference and challenge profiles and returns its evidence, or "" when
// the case does not separate them.
var rules = [...]struct {
	c    hetero.Case
	rule func(a, b *profile) string
}{
	{hetero.Synonyms, synonyms},
	{hetero.SimpleMapping, simpleMapping},
	{hetero.UnionTypes, unionTypes},
	{hetero.ComplexMappings, complexMappings},
	{hetero.LanguageExpression, languageExpression},
	{hetero.Nulls, nulls},
	{hetero.VirtualColumns, virtualColumns},
	{hetero.SemanticIncompatibility, semanticIncompatibility},
	{hetero.SameAttributeDifferentStructure, sameAttributeDifferentStructure},
	{hetero.HandlingSets, handlingSets},
	{hetero.AttributeNameDoesNotDefineSemantics, nameDoesNotDefineSemantics},
	{hetero.AttributeComposition, attributeComposition},
}

// shared returns the concepts both profiles match, sorted.
func shared(a, b *profile) []Concept {
	var out []Concept
	for c := range a.concepts {
		if _, ok := b.concepts[c]; ok {
			out = append(out, c)
		}
	}
	slices.Sort(out)
	return out
}

// both returns the two profiles' entries for concept c, if both match it.
func both(a, b *profile, c Concept) (x, y *conceptProfile, ok bool) {
	x, y = a.concepts[c], b.concepts[c]
	return x, y, x != nil && y != nil
}

// synonyms (case 1): a shared concept whose dictionary names on the two
// sides have none in common. Lexicon, similarity and instance matches are
// other cases' evidence.
func synonyms(a, b *profile) string {
	for _, c := range shared(a, b) {
		x, y := a.concepts[c].dictNames, b.concepts[c].dictNames
		if len(x) > 0 && len(y) > 0 && disjoint(x, y) {
			return fmt.Sprintf("%s named %s vs %s", c, x[0], y[0])
		}
	}
	return ""
}

func disjoint(x, y []string) bool {
	for _, s := range x {
		if slices.Contains(y, s) {
			return false
		}
	}
	return true
}

// simpleMapping (case 2): the time concept is spelled on different clocks.
func simpleMapping(a, b *profile) string {
	x, y, ok := both(a, b, ConceptTime)
	if !ok {
		return ""
	}
	if sx, sy := clockStyle(x.values), clockStyle(y.values); sx != "" && sy != "" && sx != sy {
		return "time spelled " + sx + " vs " + sy
	}
	return ""
}

// clockStyle names how values spell the clock: "12-hour" when a clock
// carries an am/pm marker, "bare 12-hour" when an unmarked clock is not
// its own canonical rendering ("1:30" in "1:30 - 2:50"), "24-hour" when
// every clock is ("08:00", "16:00"), and "" when no value holds a clock.
func clockStyle(values []string) string {
	var marked, bare, canonical bool
	for _, v := range values {
		for _, tok := range strings.FieldsFunc(v, func(r rune) bool {
			return unicode.IsSpace(r) || r == ',' || r == '-' || r == '–' || r == '—'
		}) {
			t, err := mapping.ParseClock(tok)
			switch {
			case err != nil:
			case strings.IndexFunc(tok, unicode.IsLetter) >= 0:
				// ParseClock accepts letters only in an am/pm marker.
				marked = true
			case t.String() == tok:
				canonical = true
			default:
				bare = true
			}
		}
	}
	switch {
	case marked:
		return "12-hour"
	case bare:
		return "bare 12-hour"
	case canonical:
		return "24-hour"
	}
	return ""
}

// unionTypes (case 3): a shared concept carries a link (an attribute or an
// anchor) on one side only.
func unionTypes(a, b *profile) string {
	for _, c := range shared(a, b) {
		if a.concepts[c].linked != b.concepts[c].linked {
			return string(c) + " is a string-plus-link union on one side only"
		}
	}
	return ""
}

// complexMappings (case 4): credits are a workload notation ("2V1U") on
// one side only.
func complexMappings(a, b *profile) string {
	x, y, ok := both(a, b, ConceptCredits)
	if ok && workload(x.values) != workload(y.values) {
		return "credits spelled as a workload (\"2V1U\") on one side only"
	}
	return ""
}

func workload(values []string) bool {
	for _, v := range values {
		if _, err := mapping.ParseUmfang(v); err == nil {
			return true
		}
	}
	return false
}

// languageExpression (case 5): the records are named in different
// languages — a different lexicon, or none for English, translates the
// record name on each side.
func languageExpression(a, b *profile) string {
	if a.language != b.language {
		return "records named " + a.record + " vs " + b.record
	}
	return ""
}

// nulls (case 6): a shared concept is missing, or present but empty, in a
// different share of the records on each side.
func nulls(a, b *profile) string {
	for _, c := range shared(a, b) {
		x, y := a.concepts[c], b.concepts[c]
		xMissing, yMissing := a.records-x.present, b.records-y.present
		xEmpty, yEmpty := x.present-x.filled, y.present-y.filled
		if xMissing*b.records != yMissing*a.records || xEmpty*b.records != yEmpty*a.records {
			return fmt.Sprintf("%s missing in %d/%d vs %d/%d records, empty in %d/%d vs %d/%d", c,
				xMissing, a.records, yMissing, b.records, xEmpty, a.records, yEmpty, b.records)
		}
	}
	return ""
}

// optional are the concepts a catalog may not model at all.
var optional = [...]Concept{ConceptPrereq, ConceptRestrict}

// lacking returns whichever profile lacks concept c that the other models.
func lacking(a, b *profile, c Concept) *profile {
	_, inA := a.concepts[c]
	_, inB := b.concepts[c]
	switch {
	case inA && !inB:
		return b
	case inB && !inA:
		return a
	}
	return nil
}

// virtualColumns (case 7): an optional concept modeled on one side is only
// mentioned in the other side's free text.
func virtualColumns(a, b *profile) string {
	for _, c := range optional {
		if p := lacking(a, b, c); p != nil && p.mentioned[c] {
			return string(c) + " modeled on one side, only mentioned in free text on the other"
		}
	}
	return ""
}

// semanticIncompatibility (case 8): an optional concept modeled on one
// side does not exist on the other, not even in free text.
func semanticIncompatibility(a, b *profile) string {
	for _, c := range optional {
		if p := lacking(a, b, c); p != nil && !p.mentioned[c] {
			return string(c) + " modeled on one side only"
		}
	}
	return ""
}

// sameAttributeDifferentStructure (case 9): a shared concept sits at
// different depths below the record, or the room is an element on one side
// and part of the time values on the other (Maryland's "MWF 10:00am
// KEY0106").
func sameAttributeDifferentStructure(a, b *profile) string {
	for _, c := range shared(a, b) {
		if a.concepts[c].depths != b.concepts[c].depths {
			return string(c) + " at different depths below the record"
		}
	}
	if p := lacking(a, b, ConceptRoom); p != nil && p.concepts[ConceptTime] != nil {
		for _, v := range p.concepts[ConceptTime].values {
			if t, err := mapping.ParseUMDTime(v); err == nil && t.Room != "" {
				return "room an element on one side, inside time values on the other"
			}
		}
	}
	return ""
}

// handlingSets (case 10): the two sides represent sets of instructors
// differently.
func handlingSets(a, b *profile) string {
	if sa, sb := instructorSets(a), instructorSets(b); sa != "" && sb != "" && sa != sb {
		return "instructor sets as " + sa + " vs " + sb
	}
	return ""
}

// instructorSets says how a profile represents a course's instructors when
// there are several: "repeated" elements (instructor elements, or
// Maryland's sections each naming a teacher), "joined" values ("Song/Wing",
// "Ng; Ito"), both, or "" when no course has several.
func instructorSets(p *profile) string {
	repeated, joined := false, false
	if in := p.concepts[ConceptInstructor]; in != nil {
		repeated = in.repeated
		for _, v := range in.values {
			joined = joined || strings.ContainsAny(v, "/;")
		}
	}
	if sec := p.concepts[ConceptSection]; sec != nil && sec.repeated {
		for _, v := range sec.values {
			if s, err := mapping.ParseUMDSection(v); err == nil && looksLikePersonName(s.Teacher) {
				repeated = true
			}
		}
	}
	switch {
	case repeated && joined:
		return "repeated elements and joined values"
	case repeated:
		return "repeated elements"
	case joined:
		return "joined values"
	}
	return ""
}

// nameDoesNotDefineSemantics (case 11): a shared concept is named on one
// side and recognizable only by its values on the other.
func nameDoesNotDefineSemantics(a, b *profile) string {
	for _, c := range shared(a, b) {
		x, y := a.concepts[c], b.concepts[c]
		if x.named != y.named {
			if x.named {
				x = y
			}
			return fmt.Sprintf("%s matched by values only in %s", c, strings.Join(x.valueOnly, ", "))
		}
	}
	return ""
}

// attributeComposition (case 12): one side composes text with a schedule
// in one value that the other side does not.
func attributeComposition(a, b *profile) string {
	if (a.composed == "") != (b.composed == "") {
		// One of the two names is empty.
		return a.composed + b.composed + " composes text with a day/time schedule on one side only"
	}
	return ""
}

// composed reports whether v ends in a schedule, a run of day letters and
// a clock range, after other text: Brown's "Intro to Databases I hr.
// T,Th 1-2:20" and a generated "Databases. MWF 13:30-14:50".
func composed(v string) bool {
	f := strings.Fields(v)
	if len(f) < 3 {
		return false
	}
	days := mapping.CanonicalDays(f[len(f)-2])
	_, _, err := mapping.ParseClockRange(f[len(f)-1])
	return err == nil && days != "" && strings.Trim(days, "MTWThF") == ""
}
