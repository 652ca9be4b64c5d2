package benchmark

import (
	"encoding/json"
	"os"
)

// Timing is one measured configuration of the evaluation engine, in the
// machine-readable shape of the BENCH_chaos.json artifact.
type Timing struct {
	// Name identifies the configuration, e.g. "chaos_evaluate_all/seq" or
	// "chaos_evaluate_all/par2".
	Name string `json:"name"`
	// Runs is the number of full EvaluateAll executions measured.
	Runs int `json:"runs"`
	// NsPerOp is the mean wall-clock nanoseconds per EvaluateAll.
	NsPerOp int64 `json:"ns_per_op"`
}

// Report is a benchmark-regression artifact: the sequential and parallel
// timings of the same workload, so the sequential→parallel speedup is
// pinned in version control rather than asserted in prose.
type Report struct {
	// Suite names the workload: "benchmark_chaos".
	Suite string `json:"suite"`
	// GoMaxProcs records the parallelism available when measuring.
	GoMaxProcs int `json:"gomaxprocs"`
	// Systems lists the systems under evaluation, in input order.
	Systems []string `json:"systems"`
	// Timings holds one entry per measured configuration.
	Timings []Timing `json:"timings"`
	// Speedup is the sequential ns/op divided by the best pooled
	// configuration's ns/op: what the worker pool buys.
	Speedup float64 `json:"speedup"`
}

// WriteJSON writes the report to path as indented JSON, the BENCH_chaos.json
// artifact format.
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
