package benchmark

import (
	"context"
	"testing"
	"time"
)

// The explain machinery must observe without perturbing: turning
// ExplainFailures on may not change a single byte of the ranked scorecards.
// This is the same contract the Telemetry field carries — traces live in
// fields Format never prints.
func TestExplainFailuresByteIdenticalScorecards(t *testing.T) {
	plain, err := NewSequentialRunner().EvaluateAll(allSystems()...)
	if err != nil {
		t.Fatal(err)
	}
	recording := &Runner{Queries: Queries(), Concurrency: 1, ExplainFailures: true}
	traced, err := recording.EvaluateAll(allSystems()...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderCards(traced), renderCards(plain); got != want {
		t.Errorf("ExplainFailures changed the rendered scorecards:\n--- with ---\n%s\n--- without ---\n%s", got, want)
	}
}

// With ExplainFailures on, every failed conformance cell must carry a
// non-empty trace that accounts for the cell's latency: the leaf spans sum
// to within 10% of the measured eval time (plus a small absolute epsilon
// for scheduler jitter on sub-millisecond cells). Passing cells must stay
// trace-free — the mode is failure forensics, not a firehose.
func TestExplainFailuresAttachesAccountedTraces(t *testing.T) {
	r := &Runner{Queries: Queries(), Concurrency: 1, ExplainFailures: true}
	cards, err := r.EvaluateAll(allSystems()...)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, card := range cards {
		for _, res := range card.Results {
			failed += checkCellTrace(t, card.System, res)
		}
	}
	// Cohera and IWIZ each decline queries 4, 5 and 8.
	if failed != 6 {
		t.Errorf("saw %d failed cells, want 6", failed)
	}
}

// checkCellTrace validates one cell's trace attachment and returns 1 if
// the cell counts as failed.
func checkCellTrace(t *testing.T, system string, res QueryResult) int {
	t.Helper()
	ok := res.Err == "" && res.Correct
	if ok {
		if res.Explain != nil {
			t.Errorf("%s q%d passed but carries a trace", system, res.QueryID)
		}
		return 0
	}
	if res.Explain == nil || res.Explain.Empty() {
		t.Errorf("%s q%d failed without a trace", system, res.QueryID)
		return 1
	}
	leaf, eval := res.Explain.LeafNanos(), res.Explain.Root.DurationNS
	// 10% relative tolerance, 2ms absolute floor: declined cells answer in
	// microseconds, where a single descheduling between the leaf spans'
	// clock reads and the root span's dwarfs the relative bound.
	tol := eval / 10
	if floor := int64(2 * time.Millisecond); tol < floor {
		tol = floor
	}
	if diff := leaf - eval; diff < -tol || diff > tol {
		t.Errorf("%s q%d: leaf spans sum to %v, eval took %v (tolerance %v)",
			system, res.QueryID, time.Duration(leaf), time.Duration(eval), time.Duration(tol))
	}
	return 1
}

// BenchmarkEvalCellExplainOff pins the scoreboard hot loop with recording
// disabled — the path the zero-allocation contract protects. Compare with
// BenchmarkEvalCellExplainOn to see the cost recording adds.
func BenchmarkEvalCellExplainOff(b *testing.B) { benchmarkEvalCell(b, false) }

// BenchmarkEvalCellExplainOn measures the same cell with ExplainFailures
// recording (query 4 on Cohera: a declined, therefore traced, cell).
func BenchmarkEvalCellExplainOn(b *testing.B) { benchmarkEvalCell(b, true) }

func benchmarkEvalCell(b *testing.B, explainFailures bool) {
	r := &Runner{Queries: Queries(), ExplainFailures: explainFailures}
	sys := allSystems()[0]
	q := r.Queries[3] // q4: declined by Cohera, exercises the failure path
	ctx := context.Background()
	r.evalCell(ctx, sys, q, &truth{}, nil) // warm the system's one-time build
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.evalCell(ctx, sys, q, &truth{}, nil)
	}
}
