package benchmark

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"thalia/internal/faultline"
	"thalia/internal/integration"
	"thalia/internal/telemetry"
)

// An instrumented run must populate per-system/per-query latency series,
// count every cell, and leave the busy-workers gauge at zero — and the
// ranked scorecards must stay byte-identical to the uninstrumented
// sequential path (PR 2's guarantee survives telemetry).
func TestRunnerTelemetry(t *testing.T) {
	seq, err := NewSequentialRunner().EvaluateAll(allSystems()...)
	if err != nil {
		t.Fatal(err)
	}
	want := renderCards(seq)

	reg := telemetry.NewRegistry()
	r := &Runner{Queries: Queries(), Concurrency: 4, Telemetry: reg}
	cards, err := r.EvaluateAll(allSystems()...)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderCards(cards); got != want {
		t.Error("telemetry changed the ranked scorecard bytes")
	}

	snap := reg.Snapshot()
	cells := int64(0)
	for _, c := range snap.Counters {
		if c.Name == MetricCells {
			cells += c.Value
		}
	}
	if want := int64(4 * len(Queries())); cells != want {
		t.Errorf("cells counted = %d, want %d", cells, want)
	}
	evalSeries := 0
	for _, h := range snap.Histograms {
		switch h.Name {
		case MetricEvalLatency:
			evalSeries++
			if h.Labels["system"] == "" || !strings.HasPrefix(h.Labels["query"], "q") {
				t.Errorf("eval series missing labels: %+v", h.Labels)
			}
			if h.Count == 0 {
				t.Errorf("eval series %v has no observations", h.Labels)
			}
		case MetricQueueWait:
			if h.Count != cells {
				t.Errorf("queue-wait count = %d, want %d", h.Count, cells)
			}
		}
	}
	if want := 4 * len(Queries()); evalSeries != want {
		t.Errorf("eval latency series = %d, want %d (one per system×query)", evalSeries, want)
	}
	for _, g := range snap.Gauges {
		if g.Name == MetricBusyWorkers && g.Value != 0 {
			t.Errorf("busy workers = %d after the run, want 0", g.Value)
		}
		if g.Name == MetricWorkers && g.Value != 4 {
			t.Errorf("worker pool gauge = %d, want 4", g.Value)
		}
	}

	out := FormatEngineMetrics(snap)
	for _, wantStr := range []string{"Per-query evaluation latency", "q01", "Queue wait", "Cells evaluated: 48"} {
		if !strings.Contains(out, wantStr) {
			t.Errorf("FormatEngineMetrics missing %q:\n%s", wantStr, out)
		}
	}
	if strings.Contains(out, "Faults injected") {
		t.Errorf("a run without faults printed a fault line:\n%s", out)
	}
}

// Without a resilience policy a claimed cell starts within microseconds,
// and the queue-wait histogram resolves that: its lowest bound is at most
// 1 µs and its median reads under 25 µs. On buckets that start at 100 µs,
// every such run would read a median of exactly 50 µs.
func TestQueueWaitResolvesMicroseconds(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := &Runner{Queries: Queries(), Concurrency: 2, Telemetry: reg}
	if _, err := r.EvaluateAll(allSystems()...); err != nil {
		t.Fatal(err)
	}
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	// Buckets are exposed in ascending order, so the first is the lowest.
	_, rest, ok := strings.Cut(prom.String(), MetricQueueWait+`_bucket{le="`)
	if !ok {
		t.Fatalf("no %s buckets exposed:\n%s", MetricQueueWait, prom.String())
	}
	le, _, _ := strings.Cut(rest, `"`)
	if lowest, err := strconv.ParseFloat(le, 64); err != nil || lowest > 1e-6 {
		t.Errorf("lowest queue-wait bound %q, want at most 1e-06 s", le)
	}
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == MetricQueueWait && h.P50 >= 25e-6 {
			t.Errorf("queue-wait p50 = %.1f µs over %d cells, want under 25 µs", h.P50*1e6, h.Count)
		}
	}
}

// Under injected faults the printed block carries the fault, retry, shed
// and degraded totals, and each agrees with the scorecards' attempt
// histories. Only failing faults are planned, so every injected fault ends
// one attempt; IWIZ fails every call, which opens its breaker.
func TestFormatEngineMetricsShowsChaos(t *testing.T) {
	plan := &faultline.Plan{Seed: 7, Rules: []faultline.Rule{
		{Kind: faultline.KindTransient, Probability: 0.4},
		{System: "IWIZ", Kind: faultline.KindPermanent},
	}}
	reg := telemetry.NewRegistry()
	sys := allSystems()
	for i, s := range sys {
		sys[i] = faultline.Wrap(s, plan, reg)
	}
	r := &Runner{Queries: Queries(), Concurrency: 2, Telemetry: reg, Resilience: DefaultResilience(7)}
	cards, err := r.EvaluateAll(sys...)
	if err != nil {
		t.Fatal(err)
	}
	var faults, retries, shed, degraded int
	for _, c := range cards {
		for _, res := range c.Results {
			retries += len(res.Attempts) - 1
			for _, a := range res.Attempts {
				if a.Shed {
					shed++
				}
				if strings.HasPrefix(a.Err, "faultline: injected") {
					faults++
				}
			}
			if res.Degraded {
				degraded++
			}
		}
	}
	if faults == 0 || retries == 0 || shed == 0 || degraded == 0 {
		t.Fatalf("plan too mild: faults %d, retries %d, shed %d, degraded %d", faults, retries, shed, degraded)
	}
	want := fmt.Sprintf("Faults injected: %d  retries: %d  shed: %d  degraded: %d\n", faults, retries, shed, degraded)
	if out := FormatEngineMetrics(reg.Snapshot()); !strings.Contains(out, want) {
		t.Errorf("FormatEngineMetrics missing %q:\n%s", want, out)
	}
}

// Timeouts and plain errors land in separate counters.
func TestTelemetryTimeoutAndErrorCounters(t *testing.T) {
	moody := &fakeSystem{name: "moody", fn: func(req integration.Request) (*integration.Answer, error) {
		switch req.QueryID {
		case 1:
			time.Sleep(2 * time.Second) // hits the timeout
			return &integration.Answer{}, nil
		case 2:
			return nil, integration.ErrUnsupported // declined: not an error
		default:
			return nil, errors.New("wrapper exploded")
		}
	}}
	reg := telemetry.NewRegistry()
	r := &Runner{Queries: Queries()[:3], Concurrency: 3, QueryTimeout: 50 * time.Millisecond, Telemetry: reg}
	if _, err := r.Evaluate(moody); err != nil {
		t.Fatal(err)
	}
	var timeouts, errs int64
	for _, c := range reg.Snapshot().Counters {
		switch c.Name {
		case MetricTimeouts:
			timeouts += c.Value
		case MetricErrors:
			errs += c.Value
		}
	}
	if timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", timeouts)
	}
	if errs != 1 {
		t.Errorf("errors = %d, want 1 (ErrUnsupported must not count)", errs)
	}
}
