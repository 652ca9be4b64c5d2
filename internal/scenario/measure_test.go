package scenario

import "testing"

// TestMeasureScaleSplitsGenerateAndEvaluate checks the curve's row shape:
// each point reports the whole evaluation, the generator's share and the
// remainder, with throughputs consistent with their timings.
func TestMeasureScaleSplitsGenerateAndEvaluate(t *testing.T) {
	rep, err := MeasureScale([]int{12}, Uniform(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Timings) != 3 {
		t.Fatalf("got %d rows, want 3: %+v", len(rep.Timings), rep.Timings)
	}
	total, gen, eval := rep.Timings[0], rep.Timings[1], rep.Timings[2]
	for k, want := range []string{"scale/n12", "scale/n12/generate", "scale/n12/evaluate"} {
		if got := rep.Timings[k].Name; got != want {
			t.Errorf("row %d: %q, want %q", k, got, want)
		}
		if got := rep.Timings[k].Runs; got != scaleRuns(12) {
			t.Errorf("row %d: %d runs, want %d", k, got, scaleRuns(12))
		}
	}
	if total.NsPerOp <= 0 || gen.NsPerOp <= 0 {
		t.Fatalf("unmeasured rows: %+v", rep.Timings)
	}
	if want := max(total.NsPerOp-gen.NsPerOp, 0); eval.NsPerOp != want {
		t.Errorf("evaluate = %d ns, want total - generate = %d ns", eval.NsPerOp, want)
	}
}

func TestScaleRunsSpendTheCellBudget(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 50}, {35, 50}, {500, 20}, {5000, 3}, {100000, 3},
	} {
		if got := scaleRuns(tc.n); got != tc.want {
			t.Errorf("scaleRuns(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
