package benchmark

import (
	"context"
	"fmt"
	"strings"
	"time"

	"thalia/internal/integration"
	"thalia/internal/journal"
	"thalia/internal/telemetry"
)

// Runner evaluates integration systems on the benchmark. The zero value is
// not useful; construct with NewRunner (all twelve queries, one worker per
// CPU) and adjust the knobs as needed.
type Runner struct {
	Queries []*Query
	// Concurrency is the size of the worker pool query×system cells are
	// fanned out over. Zero or negative means one worker per logical CPU;
	// 1 reproduces the strictly sequential evaluation order.
	Concurrency int
	// QueryTimeout bounds one system's Answer call for one query. A cell
	// that overruns is recorded as a per-query error (ErrQueryTimeout)
	// rather than hanging the evaluation. Zero means no timeout.
	QueryTimeout time.Duration
	// Telemetry, when non-nil, receives engine metrics: per-cell queue
	// wait and evaluation latency (engine_queue_wait_seconds,
	// engine_eval_seconds{system,query}), timeout/error counts and
	// worker-pool utilization. Metrics observe the evaluation from the
	// outside; scorecards are byte-identical with or without it.
	Telemetry *telemetry.Registry
	// ExplainFailures, when set, attaches an explain.Recorder to every cell
	// and keeps the trace (QueryResult.Explain) for cells that fail —
	// declined, errored or incorrect. Like Telemetry, it observes without
	// perturbing: rendered scorecards are byte-identical either way.
	ExplainFailures bool
	// Resilience, when non-nil, runs every cell through the retry /
	// circuit-breaker / graceful-degradation policy and attaches attempt
	// histories (QueryResult.Attempts). Each system's cells evaluate in
	// query order (systems still run in parallel) so breaker trajectories
	// — and therefore scorecards — are deterministic. A cell that exhausts
	// its retries is marked Degraded; it never aborts the run.
	Resilience *Resilience
	// Journal, when non-nil, is the run's flight recorder: the evaluation
	// appends a run-start event, per-cell lifecycle events (with attempt
	// histories, latency, and explain digests for failed cells), periodic
	// telemetry snapshots (when Telemetry is also set), and a run-end
	// event carrying the ranked-scorecard digest. Like Telemetry and
	// ExplainFailures it observes from the outside: scorecards are
	// byte-identical with journaling on or off, and a nil Journal costs
	// nothing.
	Journal *journal.Recorder
}

// NewRunner returns a runner over all twelve queries, one worker per CPU.
func NewRunner() *Runner { return &Runner{Queries: Queries()} }

// NewSequentialRunner returns a runner that evaluates cells strictly one at
// a time, in query order — the reference path the concurrent engine is
// differentially tested against.
func NewSequentialRunner() *Runner { return &Runner{Queries: Queries(), Concurrency: 1} }

// NewStreamingRunner returns a runner over a generated query set. Every
// runner streams: a query's expected answer is computed by the first of its
// cells, shared by the rest, and becomes garbage once its last cell is
// scored, so a 10k-source workload holds the truth of the queries in flight,
// not O(sources) of it.
func NewStreamingRunner(queries []*Query) *Runner { return &Runner{Queries: queries} }

// Evaluate runs every benchmark query through the system and scores the
// outcome against the expected integrated answers. A query whose expected
// answer cannot be computed degrades to a per-query error result; it does
// not abort the evaluation.
func (r *Runner) Evaluate(sys integration.System) (*Scorecard, error) {
	return r.EvaluateContext(context.Background(), sys)
}

// EvaluateAll scores several systems and returns their cards ranked. Cells
// are evaluated on the runner's worker pool (see EvaluateAllContext for the
// concurrency contract); the ranked result is byte-identical to the
// sequential (Concurrency=1) path.
func (r *Runner) EvaluateAll(systems ...integration.System) ([]*Scorecard, error) {
	return r.EvaluateAllContext(context.Background(), systems...)
}

// Summary renders the Section 4.2 narrative line for a scorecard, e.g.
// "Cohera could do 4 queries with no code, and another 5 with varying
// amounts of user-defined code. The other 3 queries look very difficult."
func Summary(s *Scorecard) string {
	noCode := s.NoCodeCount()
	withCode := s.SupportedCount() - noCode
	declined := len(s.Results) - s.SupportedCount()
	return fmt.Sprintf("%s: %d queries with no code, %d with custom integration code, %d unsupported; %d/%d correct, complexity score %d.",
		s.System, noCode, withCode, declined, s.CorrectCount(), len(s.Results), s.ComplexityScore())
}

// Comparison renders the side-by-side per-query table for several systems —
// the reproduction of Section 4.2's evaluation.
func Comparison(cards []*Scorecard) string {
	var b strings.Builder
	b.WriteString("Section 4.2 — per-query support by system\n\n")
	fmt.Fprintf(&b, "%-7s %-42s", "Query", "Heterogeneity")
	for _, c := range cards {
		fmt.Fprintf(&b, " %-22s", c.System)
	}
	b.WriteString("\n")
	qs := Queries()
	for i, q := range qs {
		fmt.Fprintf(&b, "%-7d %-42s", q.ID, q.Case.Name())
		for _, c := range cards {
			r := c.Results[i]
			cell := "unsupported"
			if r.Supported {
				cell = r.Effort.String()
				if !r.Correct {
					cell += " (WRONG)"
				}
			}
			fmt.Fprintf(&b, " %-22s", cell)
		}
		b.WriteString("\n")
	}
	b.WriteString("\n")
	for _, c := range cards {
		b.WriteString(Summary(c))
		b.WriteString("\n")
	}
	return b.String()
}
