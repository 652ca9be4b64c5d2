package benchmark

import (
	"fmt"
	"runtime"
	"time"

	"thalia/internal/faultline"
	"thalia/internal/integration"
)

// MeasureChaos times EvaluateAll under the standard fault mix with the
// default resilience policy, sequentially and on a pool of the given size
// — the throughput-under-chaos regression artifact (BENCH_chaos.json).
// Beyond timing, every run is validated for the graceful-degradation
// contract: all queries produce a result and every cell carries a
// non-empty attempt history; a violation fails the measurement rather than
// producing a silently wrong baseline.
func MeasureChaos(runs, pool int, seed int64, systems ...integration.System) (*Report, error) {
	if runs <= 0 {
		runs = 1
	}
	plan := faultline.StandardMix(seed)
	wrapped := make([]integration.System, len(systems))
	for i, sys := range systems {
		wrapped[i] = faultline.Wrap(sys, plan, nil)
	}
	rep := &Report{Suite: "benchmark_chaos", GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, sys := range systems {
		rep.Systems = append(rep.Systems, sys.Name())
	}
	warm := NewSequentialRunner()
	if _, err := warm.EvaluateAll(systems...); err != nil {
		return nil, fmt.Errorf("benchmark: chaos warm-up: %w", err)
	}
	measure := func(name string, workers int) (Timing, error) {
		r := &Runner{Queries: Queries(), Concurrency: workers, Resilience: DefaultResilience(seed)}
		start := time.Now()
		for i := 0; i < runs; i++ {
			cards, err := r.EvaluateAll(wrapped...)
			if err != nil {
				return Timing{}, fmt.Errorf("benchmark: %s: %w", name, err)
			}
			if err := validateChaosRun(cards, len(r.Queries)); err != nil {
				return Timing{}, fmt.Errorf("benchmark: %s: %w", name, err)
			}
		}
		return Timing{Name: name, Runs: runs, NsPerOp: time.Since(start).Nanoseconds() / int64(runs)}, nil
	}
	seq, err := measure("chaos_evaluate_all/seq", 1)
	if err != nil {
		return nil, err
	}
	rep.Timings = append(rep.Timings, seq)
	if pool > 1 {
		par, err := measure(fmt.Sprintf("chaos_evaluate_all/par%d", pool), pool)
		if err != nil {
			return nil, err
		}
		rep.Timings = append(rep.Timings, par)
		rep.Speedup = float64(seq.NsPerOp) / float64(par.NsPerOp)
	}
	return rep, nil
}

// validateChaosRun enforces graceful degradation on a chaos run: every
// system's card covers every query and every cell has at least one
// recorded attempt. Faults may degrade cells; they must never lose them.
func validateChaosRun(cards []*Scorecard, queries int) error {
	for _, c := range cards {
		if len(c.Results) != queries {
			return fmt.Errorf("chaos run lost cells: %s has %d results, want %d", c.System, len(c.Results), queries)
		}
		for _, r := range c.Results {
			if len(r.Attempts) == 0 {
				return fmt.Errorf("chaos run: %s q%02d has no attempt history", c.System, r.QueryID)
			}
		}
	}
	return nil
}
