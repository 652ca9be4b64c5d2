package analysis

import (
	"fmt"
	"sort"
	"strings"

	"thalia/internal/benchmark"
	"thalia/internal/mapping"
	"thalia/internal/ufmw"
	"thalia/internal/xquery"
	"thalia/internal/xsd"
)

// This file implements thalia-vet's complexity cross-check. A query's
// complexity level is the weight of the hardest external function the
// reference mediator (internal/ufmw, which scores 12/12) charges in its
// answer, per the paper's Section 3 convention. Those charges break ties in
// the ranking, so the analyzer recomputes an estimate from the query text
// and the reference/challenge schema gap and fails on unexplained
// divergence. Divergences with a documented explanation are waived —
// waivers are first-class so the exceptions stay visible and go stale
// loudly.

// ComplexityLevel grades the integration effort a benchmark query demands.
type ComplexityLevel int

// Levels, in increasing order of required custom code.
const (
	// ComplexityNone: resolvable by declarative renaming alone.
	ComplexityNone ComplexityLevel = iota
	// ComplexityLow: a simple value conversion (paper weight 1).
	ComplexityLow
	// ComplexityMedium: structural decomposition or inference (weight 2).
	ComplexityMedium
	// ComplexityHigh: semantic translation or dual-NULL reasoning (weight 3).
	ComplexityHigh
)

// String names the level the way the paper's prose does.
func (l ComplexityLevel) String() string {
	switch l {
	case ComplexityNone:
		return "none"
	case ComplexityLow:
		return "low"
	case ComplexityMedium:
		return "medium"
	case ComplexityHigh:
		return "high"
	default:
		return "unknown"
	}
}

// ComplexityEstimate is the automatic complexity estimate for one query.
type ComplexityEstimate struct {
	QueryID int             `json:"query"`
	Level   ComplexityLevel `json:"level"`
	Score   int             `json:"score"`
	// FLWORDepth is the maximum FLWOR nesting depth.
	FLWORDepth int `json:"flworDepth"`
	// CtorCount counts constructed elements in the return clause.
	CtorCount int `json:"ctorCount"`
	// Translation reports that the challenge schema's vocabulary is in
	// another language (its tags translate to different English tags).
	Translation bool `json:"translation"`
	// MissingNames are the query's field steps with no case-insensitive
	// counterpart in the challenge schema's vocabulary.
	MissingNames []string `json:"missingNames,omitempty"`
}

// Explain renders the estimate's derivation for finding messages.
func (e ComplexityEstimate) Explain() string {
	var parts []string
	if e.FLWORDepth > 1 {
		parts = append(parts, fmt.Sprintf("FLWOR nesting depth %d", e.FLWORDepth))
	}
	if e.CtorCount >= 3 {
		parts = append(parts, fmt.Sprintf("%d constructed elements", e.CtorCount))
	}
	if e.Translation {
		parts = append(parts, "challenge schema requires language translation")
	}
	if len(e.MissingNames) > 0 {
		parts = append(parts, fmt.Sprintf("field name(s) %s absent from challenge schema",
			strings.Join(e.MissingNames, ", ")))
	}
	if len(parts) == 0 {
		parts = append(parts, "challenge schema covers every referenced field")
	}
	return strings.Join(parts, "; ")
}

// EstimateComplexity derives a complexity estimate for a query against the
// challenge schema it must be answered over. The score model:
//
//	score = (flworDepth - 1)                 // nested restructuring
//	      + ctorBonus                        // heavy result reshaping (≥3 ctors)
//	      + gap                              // reference/challenge schema gap
//
// where gap is 3 when the challenge vocabulary is in another language
// (every tag must be translated before any mapping is even possible), else
// the number of query field names with no case-insensitive counterpart in
// the challenge schema, capped at 2. The level is min(score, 3).
func EstimateComplexity(q *benchmark.Query, challenge *xsd.Schema) (ComplexityEstimate, error) {
	est := ComplexityEstimate{QueryID: q.ID}
	expr, err := xquery.Parse(q.XQuery)
	if err != nil {
		return est, fmt.Errorf("query %d does not parse: %w", q.ID, err)
	}
	est.FLWORDepth = flworDepth(expr)
	est.CtorCount = ctorCount(expr)
	est.Translation = schemaNeedsTranslation(challenge)

	gap := 0
	if est.Translation {
		gap = 3
	} else {
		est.MissingNames = missingFieldNames(expr, challenge)
		gap = len(est.MissingNames)
		if gap > 2 {
			gap = 2
		}
	}
	est.Score = gap
	if est.FLWORDepth > 1 {
		est.Score += est.FLWORDepth - 1
	}
	if est.CtorCount >= 3 {
		est.Score++
	}
	level := est.Score
	if level > 3 {
		level = 3
	}
	est.Level = ComplexityLevel(level)
	return est, nil
}

// flworDepth computes the maximum FLWOR nesting depth.
func flworDepth(e xquery.Expr) int {
	max := 0
	var walk func(x xquery.Expr, depth int)
	walk = func(x xquery.Expr, depth int) {
		if _, ok := x.(*xquery.FLWOR); ok {
			depth++
			if depth > max {
				max = depth
			}
		}
		d := depth
		xquery.Walk(x, func(y xquery.Expr) bool {
			if y == x {
				return true
			}
			walk(y, d)
			return false
		})
	}
	walk(e, 0)
	return max
}

// ctorCount counts constructed elements.
func ctorCount(e xquery.Expr) int {
	n := 0
	xquery.Walk(e, func(x xquery.Expr) bool {
		if _, ok := x.(*xquery.ElemCtor); ok {
			n++
		}
		return true
	})
	return n
}

// schemaNeedsTranslation reports whether a schema's element vocabulary is
// in a language the testbed's lexicons cover: some tag translates to a
// different English tag, so answering any reference-schema query over it
// needs a high-complexity translation function first.
func schemaNeedsTranslation(s *xsd.Schema) bool {
	if s == nil {
		return false
	}
	lexicons := []*mapping.Lexicon{mapping.NewGermanLexicon(), mapping.NewFrenchLexicon()}
	for _, name := range s.Vocabulary() {
		name = strings.TrimPrefix(name, "@")
		for _, lex := range lexicons {
			if en := lex.TranslateTag(name); !strings.EqualFold(en, name) {
				return true
			}
		}
	}
	return false
}

// missingFieldNames collects the query's field steps — path steps taken
// from a bound variable, i.e. everything except the doc()-rooted navigation
// that selects the row set — that have no case-insensitive counterpart in
// the challenge schema's vocabulary. Each missing name is a concept the
// integrator must discover somewhere else in the challenge schema.
func missingFieldNames(e xquery.Expr, challenge *xsd.Schema) []string {
	if challenge == nil {
		return nil
	}
	vocab := challenge.Vocabulary()
	inVocab := func(name string) bool {
		for _, v := range vocab {
			if strings.EqualFold(strings.TrimPrefix(v, "@"), name) {
				return true
			}
		}
		return false
	}
	seen := map[string]bool{}
	var missing []string
	xquery.Walk(e, func(x xquery.Expr) bool {
		p, ok := x.(*xquery.PathExpr)
		if !ok {
			return true
		}
		if _, fromDoc := docRoot(p); fromDoc {
			return true // row-set navigation, not a field reference
		}
		for _, st := range p.Steps {
			if st.Name == "*" || seen[st.Name] {
				continue
			}
			seen[st.Name] = true
			if !inVocab(st.Name) {
				missing = append(missing, st.Name)
			}
		}
		return true
	})
	sort.Strings(missing)
	return missing
}

// docRoot reports whether a path is rooted at a doc() call.
func docRoot(p *xquery.PathExpr) (*xquery.Call, bool) {
	c, ok := p.Root.(*xquery.Call)
	if ok && strings.EqualFold(c.Name, "doc") {
		return c, true
	}
	return nil, false
}

// ComplexityWaiver documents an accepted divergence between the estimator
// and the reference mediator's charge for one query. A waiver applies only
// while both the estimate and the charge still match it.
type ComplexityWaiver struct {
	// Estimated is the level the estimator is expected to produce.
	Estimated ComplexityLevel
	// Charged is the level the reference mediator is expected to charge.
	Charged ComplexityLevel
	// Reason explains, for a human, why the charged level is right and the
	// estimate is off.
	Reason string
}

// DefaultComplexityWaivers documents the two places the textual estimator
// is known to diverge from the reference mediator's accounting.
var DefaultComplexityWaivers = map[int]ComplexityWaiver{
	1: {
		Estimated: ComplexityLow,
		Charged:   ComplexityNone,
		Reason: "query 1's Instructor→Lecturer gap is a pure synonym: the mediator " +
			"resolves it by declarative renaming with no external function, so the " +
			"charged level is none although the estimator counts one missing field name",
	},
	3: {
		Estimated: ComplexityLow,
		Charged:   ComplexityMedium,
		Reason: "query 3's union-type heterogeneity hides inside brown's mixed Title " +
			"content (string vs. embedded hyperlink), which the vocabulary diff cannot " +
			"see; decomposing it takes a medium-complexity external function",
	},
}

// chargedLevel is the level the reference mediator charges for a query:
// the complexity of the hardest external function in its answer.
func chargedLevel(med *ufmw.Mediator, q *benchmark.Query) (ComplexityLevel, error) {
	ans, err := med.Answer(q.Request())
	if err != nil {
		return 0, err
	}
	level := ComplexityNone
	for _, f := range ans.Functions {
		if l := ComplexityLevel(f.Complexity); l > level {
			level = l
		}
	}
	return level, nil
}

// CheckComplexity diffs the reference mediator's charged levels against
// the automatic estimates and reports unexplained divergence, unknown or
// stale waivers, and estimator failures. schemaFor defaults to the
// testbed's catalogs; waivers defaults to DefaultComplexityWaivers.
func CheckComplexity(queries []*benchmark.Query, schemaFor func(string) (*xsd.Schema, error), waivers map[int]ComplexityWaiver) []Finding {
	if schemaFor == nil {
		schemaFor = CatalogSchemaFor
	}
	if waivers == nil {
		waivers = DefaultComplexityWaivers
	}
	med := ufmw.New()
	var out []Finding
	for _, q := range queries {
		challenge, err := schemaFor(q.ChallengeSource)
		if err != nil {
			out = append(out, Finding{Check: "complexity", QueryID: q.ID,
				Message: fmt.Sprintf("cannot load challenge schema %q: %v", q.ChallengeSource, err)})
			continue
		}
		est, err := EstimateComplexity(q, challenge)
		if err != nil {
			out = append(out, Finding{Check: "complexity", QueryID: q.ID, Message: err.Error()})
			continue
		}
		charged, err := chargedLevel(med, q)
		if err != nil {
			out = append(out, Finding{Check: "complexity", QueryID: q.ID,
				Message: fmt.Sprintf("reference mediator cannot answer: %v", err)})
			continue
		}
		w, waived := waivers[q.ID]
		switch {
		case est.Level == charged && !waived:
			// Agreement, nothing to report.
		case est.Level == charged && waived:
			out = append(out, Finding{Check: "complexity", QueryID: q.ID,
				Message: fmt.Sprintf("stale waiver: estimate now agrees with the reference mediator's level %s — delete the waiver", charged)})
		case waived && est.Level == w.Estimated && charged == w.Charged:
			// Documented divergence, still accurate.
		case waived:
			out = append(out, Finding{Check: "complexity", QueryID: q.ID,
				Message: fmt.Sprintf("waiver out of date: waiver expects estimate %s and charge %s, but the estimator now says %s and the reference mediator charges %s (%s)",
					w.Estimated, w.Charged, est.Level, charged, est.Explain())})
		default:
			out = append(out, Finding{Check: "complexity", QueryID: q.ID,
				Message: fmt.Sprintf("complexity divergence: estimated %s but the reference mediator charges %s (%s) — fix the charge or add a documented waiver",
					est.Level, charged, est.Explain())})
		}
	}
	return out
}
