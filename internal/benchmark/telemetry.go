package benchmark

import (
	"fmt"
	"strings"
	"time"

	"thalia/internal/faultline"
	"thalia/internal/telemetry"
)

// Engine metric names, as they appear in snapshots and /metrics.
const (
	// MetricQueueWait is the histogram of per-cell wait: the time from a
	// worker claiming a query×system cell to the start of its evaluation.
	// Under a resilience policy that is the breaker-gate wait for the
	// system's previous cell; otherwise it is near zero. No labels — it
	// measures the pool, not the workload.
	MetricQueueWait = "engine_queue_wait_seconds"
	// MetricEvalLatency is the histogram of per-cell evaluation latency,
	// labeled by system and by the query's heterogeneity class (q01..q12;
	// paper query n exercises class n). A generated scenario numbers its
	// queries 1..N, so labelling by class keeps the series count bounded
	// at twelve per system whatever N is.
	MetricEvalLatency = "engine_eval_seconds"
	// MetricCells counts evaluated cells per system.
	MetricCells = "engine_cells_total"
	// MetricErrors counts cells that degraded to a per-query error
	// (excluding timeouts), per system.
	MetricErrors = "engine_errors_total"
	// MetricTimeouts counts cells that hit the per-query timeout, per
	// system.
	MetricTimeouts = "engine_timeouts_total"
	// MetricBusyWorkers gauges how many pool workers are evaluating a
	// cell right now; MetricWorkers gauges the pool size.
	MetricBusyWorkers = "engine_busy_workers"
	MetricWorkers     = "engine_workers"
)

// queueWaitBuckets are MetricQueueWait's bounds: DefaultBuckets, which
// start at 100 µs, under a ladder from 1 µs. Without a resilience policy a
// claimed cell starts within microseconds, and quantiles interpolate inside
// the lowest bucket, so on DefaultBuckets alone every such run reads a p50
// of 50 µs whatever its waits were.
var queueWaitBuckets = append([]float64{1e-6, 2.5e-6, 5e-6, 10e-6, 25e-6, 50e-6}, telemetry.DefaultBuckets...)

// QueryLabel renders a heterogeneity class number the way engine metrics
// label queries: q01..q12.
func QueryLabel(id int) string { return fmt.Sprintf("q%02d", id) }

// recordCell records one finished cell's telemetry. Called by the worker
// loop only when r.Telemetry is non-nil.
func (r *Runner) recordCell(system string, q *Query, res QueryResult, d time.Duration) {
	tel := r.Telemetry
	sys := telemetry.L("system", system)
	tel.Counter(MetricCells, sys).Inc()
	tel.Histogram(MetricEvalLatency, sys, telemetry.L("query", QueryLabel(int(q.Case)))).ObserveDuration(d)
	switch {
	case res.Err == "":
	case strings.Contains(res.Err, ErrQueryTimeout.Error()):
		tel.Counter(MetricTimeouts, sys).Inc()
	default:
		tel.Counter(MetricErrors, sys).Inc()
	}
}

// FormatEngineMetrics renders an engine metrics snapshot as the text block
// `thalia bench --telemetry` prints: per-query p95 evaluation latency by
// system, queue-wait (claim to start) quantiles, and error/timeout totals,
// plus, when the run injected faults or the resilience policy acted, the
// totals of injected faults, retries, shed attempts and degraded cells.
func FormatEngineMetrics(snap *telemetry.Snapshot) string {
	var b strings.Builder
	b.WriteString("Engine telemetry\n\n")
	b.WriteString("Per-query evaluation latency (p50 / p95 / p99, ms):\n")
	fmt.Fprintf(&b, "  %-22s %-5s %10s %10s %10s %8s\n", "SYSTEM", "QUERY", "P50", "P95", "P99", "COUNT")
	for _, h := range snap.Histograms {
		if h.Name != MetricEvalLatency {
			continue
		}
		fmt.Fprintf(&b, "  %-22s %-5s %10.3f %10.3f %10.3f %8d\n",
			h.Labels["system"], h.Labels["query"],
			h.P50*1000, h.P95*1000, h.P99*1000, h.Count)
	}
	for _, h := range snap.Histograms {
		if h.Name == MetricQueueWait {
			fmt.Fprintf(&b, "\nQueue wait (claim to start): p50 %.3fms  p95 %.3fms  p99 %.3fms over %d cells\n",
				h.P50*1000, h.P95*1000, h.P99*1000, h.Count)
		}
	}
	cells, errs, timeouts := int64(0), int64(0), int64(0)
	faults, retries, shed, degraded := int64(0), int64(0), int64(0), int64(0)
	for _, c := range snap.Counters {
		switch c.Name {
		case MetricCells:
			cells += c.Value
		case MetricErrors:
			errs += c.Value
		case MetricTimeouts:
			timeouts += c.Value
		case faultline.MetricInjected:
			faults += c.Value
		case MetricRetries:
			retries += c.Value
		case MetricShed:
			shed += c.Value
		case MetricDegraded:
			degraded += c.Value
		}
	}
	fmt.Fprintf(&b, "Cells evaluated: %d  errors: %d  timeouts: %d\n", cells, errs, timeouts)
	if faults+retries+shed+degraded > 0 {
		fmt.Fprintf(&b, "Faults injected: %d  retries: %d  shed: %d  degraded: %d\n", faults, retries, shed, degraded)
	}
	for _, g := range snap.Gauges {
		if g.Name == MetricWorkers {
			fmt.Fprintf(&b, "Worker pool size: %d\n", g.Value)
		}
	}
	return b.String()
}
