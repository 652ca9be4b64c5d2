package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads back.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// specFile is the benchmark definition, at the root of the checkout the
// benchmark runs from.
const specFile = "BENCHMARK.json"

// setRuns is how many runs of each workload a result set holds: enough for
// the quartiles a spread is computed from.
const setRuns = 10

// resultSet holds, per workload, the result lines of several runs.
type resultSet map[string][]result

// collectSet runs every workload of the spec setRuns times, seeds seed,
// seed+1, ..., each as its own untraced process, and writes the results.
func collectSet(spec *benchSpec, out string, seed int64, exe, dir string) error {
	set := resultSet{}
	for _, w := range spec.Workloads {
		for i := 0; i < setRuns; i++ {
			cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(seed+int64(i)),
				"-seconds", fmt.Sprint(spec.RunSeconds), "-trace", "0", "-dir", dir)
			cmd.Stderr = os.Stderr
			raw, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed+int64(i), err)
			}
			lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed+int64(i), err)
			}
			set[w.Name] = append(set[w.Name], res)
			fmt.Fprintf(os.Stderr, "collect: %s seed %d done\n", w.Name, seed+int64(i))
		}
	}
	raw, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(raw, '\n'), 0o644)
}

// compareSets applies the spec's bounds to every (workload, end-to-end
// metric) pair of two result sets and prints one row each. It returns 1
// when a pair regressed or a run was incorrect.
func compareSets(spec *benchSpec, aPath, bPath string, out io.Writer) int {
	a, err := readSet(aPath)
	if err == nil {
		var b resultSet
		if b, err = readSet(bPath); err == nil {
			return compareResults(spec, a, b, out)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func readSet(path string) (resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func compareResults(spec *benchSpec, a, b resultSet, out io.Writer) int {
	code := 0
	fmt.Fprintf(out, "%-10s %-18s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "median A", "median B", "change", "sprd A", "sprd B", "verdict")
	for _, w := range spec.Workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(out, "%-10s missing from a set\n", w.Name)
			code = 1
			continue
		}
		for _, rs := range [][]result{ra, rb} {
			for _, r := range rs {
				if !r.Correct {
					fmt.Fprintf(out, "%-10s has an incorrect run\n", w.Name)
					code = 1
				}
			}
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			v := verdict(va, vb, m.Bound, m.Better == "lower")
			if v == "regressed" {
				code = 1
			}
			change := 0.0
			if ma := median(va); ma != 0 {
				change = 100 * (median(vb) - ma) / ma
			}
			fmt.Fprintf(out, "%-10s %-18s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%%  %s\n",
				w.Name, m.Name, median(va), median(vb), change, 100*spread(va), 100*spread(vb), v)
		}
	}
	return code
}

func values(rs []result, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}

// verdict judges set b against set a for one metric. A pair whose
// run-to-run spread exceeds the bound on either side is "unresolved" — not
// "ok" — unless every run of b beats every run of a.
func verdict(a, b []float64, bound float64, lowerBetter bool) string {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved"
	}
	worse := (mb - ma) / ma
	if !lowerBetter {
		worse = -worse
	}
	if spread(a) > bound || spread(b) > bound {
		if allBetter(a, b, lowerBetter) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "regressed"
	case -worse > bound:
		return "better"
	}
	return "ok"
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, lowerBetter bool) bool {
	sa, sb := sorted(a), sorted(b)
	if lowerBetter {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}
