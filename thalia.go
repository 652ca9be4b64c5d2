// Package thalia is a reproduction of THALIA (Test Harness for the
// Assessment of Legacy information Integration Approaches; Hammer,
// Stonebraker & Topsakal, ICDE 2005): a testbed of 35 heterogeneous
// university course-catalog sources, the twelve benchmark queries that
// exercise THALIA's classification of syntactic and semantic
// heterogeneities, the scoring function that ranks integration systems,
// and runnable models of the two systems the paper evaluates (Cohera and
// IWIZ) plus a reference mediator that resolves all twelve cases.
//
// # Quick start
//
//	for _, q := range thalia.Queries() {
//		fmt.Println(q.ID, q.Name)
//	}
//	card, err := thalia.Evaluate(thalia.NewIWIZ())
//	fmt.Println(card.Format())
//
// The testbed is generated deterministically and extracted through the
// package's TESS-style wrapper, so no network access or external data is
// required. The THALIA web site (catalog browsing, benchmark downloads,
// Honor Roll) is served by NewSiteHandler.
package thalia

import (
	"context"
	"net/http"

	"thalia/internal/benchmark"
	"thalia/internal/catalog"
	"thalia/internal/cohera"
	"thalia/internal/faultline"
	"thalia/internal/hetero"
	"thalia/internal/integration"
	"thalia/internal/iwiz"
	"thalia/internal/rewrite"
	"thalia/internal/schemamatch"
	"thalia/internal/ufmw"
	"thalia/internal/website"
	"thalia/internal/xmldom"
	"thalia/internal/xquery"
	"thalia/internal/xquery/plan"
)

// Source is one university catalog in the testbed: its cached original
// HTML page, TESS wrapper, extracted XML document, and inferred schema.
type Source = catalog.Source

// Course is the generator-side course record behind a source.
type Course = catalog.Course

// Query is one of the twelve benchmark queries.
type Query = benchmark.Query

// Scorecard is a system's benchmark outcome under the paper's scoring
// function: one point per correct answer, external-function complexity as
// the tie-breaker.
type Scorecard = benchmark.Scorecard

// HonorRoll is the public ranking of uploaded benchmark scores.
type HonorRoll = benchmark.HonorRoll

// System is an integration system that can be evaluated on the benchmark.
type System = integration.System

// Request, Answer and Row form the contract between the benchmark and a
// System: a request names the query and its source pair; an answer carries
// canonical result rows plus the integration effort invested.
type (
	Request = integration.Request
	Answer  = integration.Answer
	Row     = integration.Row
)

// Effort levels a system may report, mirroring the paper's wording.
type Effort = integration.Effort

// Effort constants: "no code" through "large amounts of custom code".
const (
	EffortNone     = integration.EffortNone
	EffortSmall    = integration.EffortSmall
	EffortModerate = integration.EffortModerate
	EffortLarge    = integration.EffortLarge
)

// ErrUnsupported is returned by systems that decline a query.
var ErrUnsupported = integration.ErrUnsupported

// HeterogeneityCase identifies one of the twelve heterogeneity cases.
type HeterogeneityCase = hetero.Case

// Sources returns the testbed's 35 university catalogs, sorted by name.
func Sources() []*Source { return catalog.All() }

// LookupSource returns one testbed source by its short name (e.g. "brown").
func LookupSource(name string) (*Source, error) { return catalog.Get(name) }

// Queries returns the twelve benchmark queries in order.
func Queries() []*Query { return benchmark.Queries() }

// QueryByID returns one benchmark query (1-12).
func QueryByID(id int) (*Query, error) { return benchmark.QueryByID(id) }

// Heterogeneities returns the twelve-case classification of Section 3.
func Heterogeneities() []hetero.Case { return hetero.AllCases() }

// DescribeHeterogeneity returns the metadata for one case.
func DescribeHeterogeneity(c hetero.Case) (hetero.Info, error) { return hetero.Describe(c) }

// Runner evaluates systems on the benchmark. Its Concurrency and
// QueryTimeout fields configure the concurrent evaluation engine; the zero
// cases (one worker per CPU, no timeout) suit most callers.
type Runner = benchmark.Runner

// NewRunner returns a Runner over the twelve benchmark queries using one
// worker per CPU.
func NewRunner() *Runner { return benchmark.NewRunner() }

// Evaluate runs the full benchmark against a system and scores it.
func Evaluate(sys System) (*Scorecard, error) {
	return benchmark.NewRunner().Evaluate(sys)
}

// EvaluateAll evaluates several systems and returns their scorecards in
// rank order (most correct answers first; lower complexity breaks ties).
func EvaluateAll(systems ...System) ([]*Scorecard, error) {
	return benchmark.NewRunner().EvaluateAll(systems...)
}

// EvaluateAllContext is EvaluateAll with cancellation: ctx aborts the
// evaluation between query cells, and the ranked scorecards are identical
// to the sequential path regardless of worker count.
func EvaluateAllContext(ctx context.Context, systems ...System) ([]*Scorecard, error) {
	return benchmark.NewRunner().EvaluateAllContext(ctx, systems...)
}

// Comparison renders the Section 4.2-style side-by-side table.
func Comparison(cards []*Scorecard) string { return benchmark.Comparison(cards) }

// FaultPlan is a seeded, deterministic fault-injection plan: rules that add
// latency, transient or permanent errors, truncation, or slow-drip reads to
// matching query×system×attempt cells.
type FaultPlan = faultline.Plan

// Resilience is the runner's retry/backoff/circuit-breaker policy. Assign
// one to Runner.Resilience to evaluate systems under faults without
// aborting the run: cells that exhaust their retries are marked Degraded.
// Its settings are the attempt budget (MaxAttempts) and the backoff jitter
// seed (JitterSeed); backoff runs from 1ms to 8ms, Runner.QueryTimeout
// bounds each attempt, and each system's circuit breaker opens after 5
// consecutive failures and probes again after shedding 3 calls.
type Resilience = benchmark.Resilience

// ParseFaultPlan reads and validates a JSON fault plan.
func ParseFaultPlan(data []byte) (*FaultPlan, error) { return faultline.ParsePlan(data) }

// StandardFaultMix returns the canonical chaos plan for a seed: a blend of
// latency, transient, truncation, drip, and rare permanent faults.
func StandardFaultMix(seed int64) *FaultPlan { return faultline.StandardMix(seed) }

// WithFaults wraps a system so the plan's faults are injected into its
// answers. A nil or empty plan returns an equivalent passthrough wrapper.
func WithFaults(sys System, plan *FaultPlan) System { return faultline.Wrap(sys, plan, nil) }

// DefaultResilience returns the stock chaos policy: 3 attempts with seeded
// exponential-backoff jitter and a 5-failure circuit breaker.
func DefaultResilience(seed int64) *Resilience { return benchmark.DefaultResilience(seed) }

// FormatChaos renders per-cell attempt histories — the chaos companion to
// Comparison and Scorecard.Format.
func FormatChaos(cards []*Scorecard) string { return benchmark.FormatChaos(cards) }

// Summary renders a one-line Section 4.2-style narrative for a scorecard.
func Summary(card *Scorecard) string { return benchmark.Summary(card) }

// NewCohera returns the model of the Cohera federated DBMS evaluated in
// Section 4.2 (9 supported queries — 4 with no code — 3 declined).
func NewCohera() System { return cohera.New() }

// NewIWIZ returns the model of UF's Integration Wizard evaluated in
// Section 4.2 (9 queries with small-to-moderate code, 3 declined).
func NewIWIZ() System { return iwiz.New() }

// NewReferenceMediator returns the reproduction's full mediator, which
// resolves all twelve heterogeneities (12/12, highest complexity score).
func NewReferenceMediator() System { return ufmw.New() }

// NewDeclarativeMediator returns the generic rewrite mediator: benchmark
// queries expressed as conjunctive global queries over per-source mapping
// tables — no per-query code — also scoring 12/12.
func NewDeclarativeMediator() System { return rewrite.NewSystem() }

// QueryContext returns an XQuery evaluation context whose doc() function
// resolves testbed sources, so doc("cmu.xml") is CMU's extracted catalog.
func QueryContext() *xquery.Context {
	return xquery.NewContext(catalog.Resolver())
}

// QueryPlan is a compiled, reusable, goroutine-safe XQuery plan — the
// default execution engine's unit of work.
type QueryPlan = plan.Plan

// CompileXQuery compiles an XQuery (subset) expression into a reusable
// plan. Compile once, evaluate many times: a plan is goroutine-safe and
// amortizes parsing and variable-slot resolution across evaluations.
func CompileXQuery(query string) (*QueryPlan, error) {
	return plan.CompileQuery(query)
}

// EvalXQuery evaluates an XQuery (subset) expression against the testbed
// on the compiled-plan engine, the default execution path: the query is
// compiled through a process-wide plan cache and the plan is evaluated, so
// repeated evaluations of the same text skip the parser and compiler.
func EvalXQuery(query string) (xquery.Sequence, error) {
	return plan.EvalQuery(query, QueryContext())
}

// EvalXQueryInterp evaluates the query on the reference tree-walking
// interpreter instead — the differential escape hatch behind every
// -engine=interp CLI flag. The two engines produce identical results and
// errors for every accepted input; keep using EvalXQuery unless comparing
// engines.
func EvalXQueryInterp(query string) (xquery.Sequence, error) {
	return xquery.EvalQuery(query, QueryContext())
}

// ItemString atomizes one XQuery result item to its string value.
func ItemString(item xquery.Item) string { return xquery.ItemString(item) }

// ResultXML renders canonical answer rows as the integrated-result XML the
// THALIA site's sample solutions use.
func ResultXML(queryID int, rows []Row) *xmldom.Document {
	return integration.RowsToXML(queryID, rows)
}

// NewSiteHandler returns the THALIA web site (Figure 4): catalog browsing,
// XML/schema viewing, benchmark bundle downloads, score upload, Honor Roll.
func NewSiteHandler() http.Handler { return website.New().Handler() }

// SchemaMatcher is the automatic schema matcher (extension): hybrid
// name/dictionary/lexicon/instance matching against the global concept
// vocabulary.
type SchemaMatcher = schemamatch.Matcher

// MatchReport is the outcome of the schema-matching experiment.
type MatchReport = schemamatch.Report

// NewSchemaMatcher returns a matcher preloaded with the catalog-domain
// synonym dictionary and the German-English lexicon.
func NewSchemaMatcher() *SchemaMatcher { return schemamatch.New() }

// RunSchemaMatchExperiment matches every labeled element of the
// paper-named sources against the global vocabulary and scores the result
// against generator-side ground truth. It quantifies which heterogeneities
// automatic matching resolves (synonyms, German terms, name-free term
// columns) and which still require programmatic mappings.
func RunSchemaMatchExperiment() (*MatchReport, error) {
	return schemamatch.RunExperiment()
}

// Detection is one heterogeneity case a source pair exhibits, with
// evidence.
type Detection = schemamatch.Detection

// DetectHeterogeneities compares two testbed sources' extracted documents
// and reports which of the twelve heterogeneity cases separate them — the
// paper's manual classification (Section 3), automated. Over the twelve
// benchmark source pairs it recovers every assigned case, and a source
// compared with itself reports none.
func DetectHeterogeneities(refName, challengeName string) ([]Detection, error) {
	var docs [2]*xmldom.Document
	for i, name := range []string{refName, challengeName} {
		src, err := catalog.Get(name)
		if err != nil {
			return nil, err
		}
		if docs[i], err = src.Document(); err != nil {
			return nil, err
		}
	}
	return schemamatch.DetectDocs(docs[0], docs[1]), nil
}
