// Package scenario generates parameterized benchmark workloads: N
// synthetic course catalogs with a chosen heterogeneity mix, scaled
// document sizes, and one generated query per catalog drawn from a query
// family for that catalog's heterogeneity class — each with a computable
// expected answer, so correctness is checkable at any N without
// hand-written goldens.
//
// THALIA hard-codes one point in the benchmark space (35 catalogs × 12
// queries); a scenario is a tunable point: sources, mix, seed and size are
// free dimensions, turning the scorecard into a matrix over workload
// shape (the flexible-benchmark framing of Alaska, and TAQO-style query
// generation).
//
// Determinism contract: every per-source artifact — the assigned
// heterogeneity case, the ground-truth courses, both rendered documents,
// the query and its expected answer — is a pure function of (seed, source
// index) via a splitmix64 stream. Sources therefore regenerate on demand,
// in any order, from any goroutine: the foundation of both the streaming
// evaluation contract (documents are materialized per cell and released,
// holding O(pool) documents live instead of O(sources)) and byte-identical
// ranked scorecards at any worker-pool size.
package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"thalia/internal/catalog"
	"thalia/internal/hetero"
)

// MaxSources bounds a scenario's size; a guard against misparsed inputs,
// not a design limit.
const MaxSources = 1_000_000

// maxWeight bounds a single mix weight (the pick is by threshold scan, so
// large weights cost nothing, but bounded totals keep the arithmetic safe).
const maxWeight = 1_000_000

// Mix is a heterogeneity mix: relative weights per case. Sources are
// assigned cases by weighted draw; a zero or absent weight excludes the
// case.
type Mix map[hetero.Case]int

// Uniform returns the mix giving all twelve cases equal weight.
func Uniform() Mix {
	m := Mix{}
	for _, c := range hetero.AllCases() {
		m[c] = 1
	}
	return m
}

// mixSlugs names each case in the mix grammar, in case order.
var mixSlugs = [12]string{
	"synonyms", "simple-mapping", "union-types", "complex-mappings",
	"language", "nulls", "virtual-columns", "semantic",
	"structure", "sets", "column-names", "composition",
}

// slugFor returns the mix-grammar slug for a case.
func slugFor(c hetero.Case) string { return mixSlugs[int(c)-1] }

// caseForSlug resolves a mix-grammar term: a slug from mixSlugs or a case
// number 1-12.
func caseForSlug(s string) (hetero.Case, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	for i, slug := range mixSlugs {
		if s == slug {
			return hetero.Case(i + 1), nil
		}
	}
	if n, err := strconv.Atoi(s); err == nil && n >= 1 && n <= 12 {
		return hetero.Case(n), nil
	}
	return 0, fmt.Errorf("scenario: unknown heterogeneity %q (want a case number 1-12 or one of %s)",
		s, strings.Join(mixSlugs[:], ", "))
}

// ParseMix parses the mix grammar: "uniform" (or empty) for the uniform
// mix, or a comma-separated list of term[:weight] entries where term is a
// case slug ("synonyms", "nulls", ...) or case number and weight defaults
// to 1 — e.g. "synonyms:2,nulls,7:3". A repeated term's weights add up.
// It accepts exactly the mixes New accepts: every summed weight in
// [0, maxWeight], and at least one positive.
func ParseMix(s string) (Mix, error) {
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "uniform") {
		return Uniform(), nil
	}
	m := Mix{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		term, weight := part, 1
		if i := strings.LastIndexByte(part, ':'); i >= 0 {
			term = part[:i]
			w, err := strconv.Atoi(strings.TrimSpace(part[i+1:]))
			if err != nil {
				return nil, fmt.Errorf("scenario: bad mix weight in %q", part)
			}
			weight = w
		}
		c, err := caseForSlug(term)
		if err != nil {
			return nil, err
		}
		if weight < 0 || weight > maxWeight {
			return nil, fmt.Errorf("scenario: mix weight %d out of range [0,%d]", weight, maxWeight)
		}
		m[c] += weight
	}
	if _, _, _, err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// String renders the mix in the grammar ParseMix accepts, in case order;
// the uniform mix renders as "uniform".
func (m Mix) String() string {
	uniform := len(m) == 12
	var parts []string
	for _, c := range hetero.AllCases() {
		w := m[c]
		if w <= 0 {
			uniform = false
			continue
		}
		if w != 1 {
			uniform = false
		}
		parts = append(parts, fmt.Sprintf("%s:%d", slugFor(c), w))
	}
	if uniform {
		return "uniform"
	}
	return strings.Join(parts, ",")
}

// validate checks the mix and returns the cases with positive weight, in
// case order, with the total weight.
func (m Mix) validate() (cases []hetero.Case, weights []int, total int, err error) {
	for c, w := range m {
		if c < hetero.Synonyms || c > hetero.AttributeComposition {
			return nil, nil, 0, fmt.Errorf("scenario: mix names invalid %v", c)
		}
		if w < 0 || w > maxWeight {
			return nil, nil, 0, fmt.Errorf("scenario: mix weight %d for %v out of range [0,%d]", w, c, maxWeight)
		}
	}
	for _, c := range hetero.AllCases() {
		if w := m[c]; w > 0 {
			cases = append(cases, c)
			weights = append(weights, w)
			total += w
		}
	}
	if total == 0 {
		return nil, nil, 0, fmt.Errorf("scenario: mix has no positive weight")
	}
	return cases, weights, total, nil
}

// Params describes one scenario workload point.
type Params struct {
	// Sources is the number of generated catalogs (1..MaxSources).
	Sources int
	// Seed fixes every random choice; same seed, same workload.
	Seed int64
	// Mix is the heterogeneity mix; nil means Uniform().
	Mix Mix
	// Size scales documents: each catalog holds Size..2*Size-1 courses.
	// Zero means DefaultSize; valid range is 2..MaxSize.
	Size int
}

// DefaultSize is the per-catalog course count scale when Params.Size is 0.
const DefaultSize = 12

// MaxSize bounds Params.Size.
const MaxSize = 500

// Scenario is a validated workload generator. It holds only the
// parameters and the normalized mix — O(1) state regardless of Sources —
// and is safe for concurrent use.
type Scenario struct {
	p          Params
	mixCases   []hetero.Case
	mixWeights []int
	mixTotal   int
}

// New validates the parameters and returns the generator.
func New(p Params) (*Scenario, error) {
	if p.Sources < 1 || p.Sources > MaxSources {
		return nil, fmt.Errorf("scenario: sources %d out of range [1,%d]", p.Sources, MaxSources)
	}
	if p.Size == 0 {
		p.Size = DefaultSize
	}
	if p.Size < 2 || p.Size > MaxSize {
		return nil, fmt.Errorf("scenario: size %d out of range [2,%d]", p.Size, MaxSize)
	}
	if p.Mix == nil {
		p.Mix = Uniform()
	}
	cases, weights, total, err := p.Mix.validate()
	if err != nil {
		return nil, err
	}
	return &Scenario{p: p, mixCases: cases, mixWeights: weights, mixTotal: total}, nil
}

// Params returns the validated parameters (with defaults filled in).
func (sc *Scenario) Params() Params { return sc.p }

// Sources returns the number of generated catalogs.
func (sc *Scenario) Sources() int { return sc.p.Sources }

// Name returns the i-th source's name, e.g. "s00042" — the Challenge
// field of the generated queries and the school attribute of the rendered
// documents; doc() URIs append ".xml".
func (sc *Scenario) Name(i int) string { return fmt.Sprintf("s%05d", i+1) }

// Index resolves a source name (or "name.xml" URI) back to its index.
func (sc *Scenario) Index(name string) (int, error) {
	name = strings.TrimSuffix(name, ".xml")
	if len(name) < 2 || name[0] != 's' {
		return 0, fmt.Errorf("scenario: not a scenario source: %q", name)
	}
	n, err := strconv.Atoi(name[1:])
	if err != nil || n < 1 || n > sc.p.Sources {
		return 0, fmt.Errorf("scenario: no source %q in a %d-source scenario", name, sc.p.Sources)
	}
	return n - 1, nil
}

// Case returns the heterogeneity case assigned to source i.
func (sc *Scenario) Case(i int) hetero.Case {
	r := sc.sourceRNG(i)
	return sc.pickCase(&r)
}

// sourceRNG returns source i's deterministic random stream.
func (sc *Scenario) sourceRNG(i int) rng { return newRNG(sc.p.Seed, uint64(i)) }

// pickCase draws the source's case from the weighted mix. It must be the
// stream's FIRST draw so Case(i) and gen(i) agree.
func (sc *Scenario) pickCase(r *rng) hetero.Case {
	n := r.intn(sc.mixTotal)
	for k, w := range sc.mixWeights {
		if n < w {
			return sc.mixCases[k]
		}
		n -= w
	}
	return sc.mixCases[len(sc.mixCases)-1]
}

// rng is a splitmix64 stream: tiny, allocation-free, and a pure function
// of its seed — the property every generated artifact's determinism rests
// on. (math/rand is deliberately avoided: its global state and Seed
// deprecation both fight reproducibility.)
type rng struct{ state uint64 }

// newRNG derives the stream for one (seed, source) pair.
func newRNG(seed int64, stream uint64) rng {
	return rng{state: uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1}
}

// next advances the splitmix64 state and returns 64 mixed bits.
func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0,n); n must be positive.
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Vocabulary pools. Subjects pair each English topic with the German
// rendering the mapping lexicon knows, so language-expression sources stay
// resolvable by the same dictionary the canonical testbed uses.
var subjects = [...]struct{ en, de string }{
	{"Database Systems", "Datenbanksysteme"},
	{"Data Structures", "Datenstrukturen"},
	{"Operating Systems", "Betriebssysteme"},
	{"Computer Networks", "Rechnernetze"},
	{"Algorithms", "Algorithmen"},
	{"Compilers", "Übersetzerbau"},
	{"Verification", "Verifikation"},
	{"Programming", "Programmierung"},
	{"Computer Science", "Informatik"},
}

var titlePrefixes = [...]struct{ en, de string }{
	{"Introduction to ", "Einführung in "},
	{"Advanced ", "Fortgeschrittene "},
	{"", ""},
	{"Topics in ", "Ausgewählte Kapitel: "},
	{"Applied ", "Angewandte "},
}

var firstNames = [...]string{"Mark", "Rita", "Hana", "Joachim", "Ling", "Sara", "Victor", "Amina"}

var lastNames = [...]string{"Hall", "Wong", "Schmidt", "Okafor", "Iyer", "Novak", "Baker", "Lindqvist"}

// buildings each carry the space that separates them from a room number.
var buildings = [...]string{"Hall ", "Weil ", "Benton ", "CSE "}

var dayPool = [...]string{"MWF", "TTh", "MW", "F", "TTh"}

var semesters = [...]string{"Fall 2003", "Winter 2004", "Spring 2004"}

var restricts = [...]string{"JR or SR", "SR", "FR, SO", "GR", "JR"}

// Meetings start on the half hour from firstStart, in one of startSlots
// slots, and last one of durations; rooms are numbered from 100 in
// roomNumbers steps.
const (
	firstStart  = 8 * 60 // 08:00
	startSlots  = 18     // 08:00 .. 16:30
	roomNumbers = 300
)

var durations = [...]int{50, 80}

// vocab spells every title, German title, textbook and instructor name the
// pools combine into once, so generated courses share these strings
// instead of concatenating fresh copies per course.
var vocab = func() (v struct {
	titles, germanTitles [len(titlePrefixes)][len(subjects)]string
	textbooks            [len(subjects)]string
	names                [len(firstNames)][len(lastNames)]string
}) {
	for si, sub := range subjects {
		for pi, pre := range titlePrefixes {
			v.titles[pi][si] = pre.en + sub.en
			v.germanTitles[pi][si] = pre.de + sub.de
		}
		v.textbooks[si] = "Foundations of " + sub.en
	}
	for f, first := range firstNames {
		for l, last := range lastNames {
			v.names[f][l] = first + " " + last
		}
	}
	return v
}()

// courseURL prefixes a generated course number to make its title link.
const courseURL = "http://courses.example.edu/"

// numbered spells prefix followed by n in a single allocation.
func numbered(prefix string, n int) string {
	var b [48]byte
	return string(strconv.AppendInt(append(b[:0], prefix...), int64(n), 10))
}

// spellings holds the strings the generator draws from bounded domains, so
// courses share them instead of spelling fresh copies: by course index
// (below 2*MaxSize), each course's title link, whose tail is its number
// and any later course's prerequisite, and the comment naming it as a
// prerequisite; every room; and every meeting's time range.
type spellings struct {
	links, prereqComments [2 * MaxSize]string
	rooms                 [len(buildings)][roomNumbers]string
	ranges                [startSlots][len(durations)]clockRange
}

// clockRange is a meeting's time range on the 24-hour and 12-hour clocks.
type clockRange struct{ h24, h12 string }

// spelled builds the spellings once per process, on first use: a process
// that never generates a scenario spells none of them.
var spelled = sync.OnceValue(func() *spellings {
	s := new(spellings)
	for j := range s.links {
		s.links[j] = numbered(courseURL+"CS", 100+j)
		s.prereqComments[j] = "Prerequisite: " + s.links[j][len(courseURL):] + " required."
	}
	for b, building := range buildings {
		for k := range s.rooms[b] {
			s.rooms[b][k] = numbered(building, 100+k)
		}
	}
	for slot := range s.ranges {
		for d, dur := range durations {
			start := firstStart + 30*slot
			var b [16]byte
			h24 := append(catalog.AppendClock24(b[:0], start), '-')
			s.ranges[slot][d] = clockRange{
				h24: string(catalog.AppendClock24(h24, start+dur)),
				h12: catalog.Clock12(start) + "-" + catalog.Clock12(start+dur),
			}
		}
	}
	return s
})

// meeting returns the time range of generated course c's meeting.
func meeting(c *catalog.Course) clockRange {
	d := 0
	if c.End-c.Start == durations[1] {
		d = 1
	}
	return spelled().ranges[(c.Start-firstStart)/30][d]
}

// walk is one pass over source i's stream: the case and the course count
// are drawn when it starts, and each next call generates the following
// course. The first course is the planted one that anchors the query, so
// spec is complete from the first next call on; its query texts are
// spelled only when the walk was started with texts set. Everything
// derives from the source's splitmix64 stream, so every walk of a source
// is identical; a consumer takes one walk and renders, scores or collects
// as it goes, never holding the course list.
type walk struct {
	source string // the source's name
	r      rng
	cse    hetero.Case
	n, j   int
	texts  bool
	spec   QuerySpec

	// instr holds the current course's instructors: a course is valid
	// until the next call to next.
	instr [2]catalog.Instructor
}

// walk starts a pass over source i's stream; texts asks for the spec's
// query texts as well as its parameters.
func (sc *Scenario) walk(i int, texts bool) *walk {
	w := &walk{source: sc.Name(i), r: sc.sourceRNG(i), texts: texts}
	w.cse = sc.pickCase(&w.r)
	w.n = sc.p.Size + w.r.intn(sc.p.Size)
	return w
}

// more reports whether the source has courses left.
func (w *walk) more() bool { return w.j < w.n }

// next generates the source's next course, valid until the following
// call.
func (w *walk) next() catalog.Course {
	c := w.genCourse()
	if w.j == 0 {
		w.spec = newSpec(w.source, w.cse, &c)
		if w.texts {
			w.spec.spellQueries()
		}
	}
	w.j++
	return c
}

// courseSubject recovers which subject a generated title used.
func courseSubject(c *catalog.Course) int {
	for idx := range subjects {
		if strings.Contains(c.Title, subjects[idx].en) {
			return idx
		}
	}
	return 0
}

// genCourse draws the walk's next course from the stream. The planted
// course (j==0) anchors the source's query parameters, so a few
// case-specific guarantees are forced there: a set-valued instructor list
// for case 10, a present textbook for case 6 (with j==1 forced empty so
// both null flavors exist).
func (w *walk) genCourse() catalog.Course {
	r, cse, j, words := &w.r, w.cse, w.j, spelled()
	si := r.intn(len(subjects))
	pi := r.intn(len(titlePrefixes))
	url := words.links[j]

	nInstr := 1 + r.intn(2)
	if cse == hetero.AttributeNameDoesNotDefineSemantics {
		nInstr = 1 // the semester-named column holds exactly one name
	}
	if cse == hetero.HandlingSets && j == 0 {
		nInstr = 2 // the planted course must exercise the set
	}
	instructors := w.instr[:nInstr]
	for k := range instructors {
		f := r.intn(len(firstNames))
		instructors[k] = catalog.Instructor{Name: vocab.names[f][r.intn(len(lastNames))]}
	}

	start := firstStart + 30*r.intn(startSlots)
	dur := durations[r.intn(len(durations))]

	credits := 1 + r.intn(4)
	prereq := "None"
	comment := "No prerequisite required."
	if r.intn(2) == 1 && j > 0 {
		k := r.intn(j)
		prereq = words.links[k][len(courseURL):]
		comment = words.prereqComments[k]
	}

	textbook := ""
	if r.intn(3) > 0 {
		textbook = vocab.textbooks[si]
	}
	if cse == hetero.Nulls {
		// Both null flavors must exist for the heterogeneity to be
		// observable: the planted course has a textbook, its neighbor
		// provably lacks one.
		if j == 0 {
			textbook = vocab.textbooks[si]
		}
		if j == 1 {
			textbook = ""
		}
	}

	return catalog.Course{
		Number:      url[len(courseURL):], // "CS123", sharing the link's bytes
		Title:       vocab.titles[pi][si],
		TitleURL:    url,
		GermanTitle: vocab.germanTitles[pi][si],
		Instructors: instructors,
		Days:        dayPool[r.intn(len(dayPool))],
		Start:       start,
		End:         start + dur,
		Room:        words.rooms[r.intn(len(buildings))][r.intn(roomNumbers)],
		Credits:     credits,
		Prereq:      prereq,
		Textbook:    textbook,
		Restrict:    restricts[r.intn(len(restricts))],
		Semester:    semesters[r.intn(len(semesters))],
		Comment:     comment,
	}
}

// ClassTotals counts sources per assigned heterogeneity case — the
// workload's realized mix, rendered by `thalia bench --scenario`.
func (sc *Scenario) ClassTotals() map[hetero.Case]int {
	totals := map[hetero.Case]int{}
	for i := 0; i < sc.p.Sources; i++ {
		totals[sc.Case(i)]++
	}
	return totals
}
