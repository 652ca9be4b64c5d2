package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"thalia/internal/integration"
)

// TestMain lets this test binary serve as the benchmark's child process:
// setup_s and the cold workload spawn os.Executable with -child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// smoke is a workload configuration for tests: a 300 ms window and small
// sizes, with everything else as in a real run.
func smoke(t *testing.T, workload string) config {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig(workload, 1, 1, false, t.TempDir())
	cfg.window = 300 * time.Millisecond
	cfg.exe = exe
	cfg.sources = 60
	cfg.getRate = 200
	cfg.postRate = 60
	return cfg
}

func repoSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	return names
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	spec := repoSpec(t)
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	sort.Strings(listed)
	if strings.Join(listed, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", listed, workloadNames())
	}
	if len(spec.EndToEnd) != len(endToEndSpecs) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, code reports %d", len(spec.EndToEnd), len(endToEndSpecs))
	}
	// A bound applies to every workload, so it is set by the noisiest:
	// site's run latency and CPU per cell are wall clock and CPU time as
	// measured, and spread by up to 20% and 9% between runs (README.md).
	// Allocation barely varies from run to run.
	bounds := map[string]float64{
		"setup_s": 0.25, "run_ms_p50": 0.25, "req_ms_p50": 0.10,
		"cpu_us_per_cell": 0.15, "alloc_kb_per_cell": 0.03, "max_rss_mb": 0.10,
	}
	for i, m := range spec.EndToEnd {
		if s := endToEndSpecs[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, s)
		}
		if m.Bound != bounds[m.Name] {
			t.Errorf("%s: bound %v, want %v", m.Name, m.Bound, bounds[m.Name])
		}
	}
	if len(spec.PerLayer) != len(perLayerSpecs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, code reports %d", len(spec.PerLayer), len(perLayerSpecs))
	}
	for i, m := range spec.PerLayer {
		if s := perLayerSpecs[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, s)
		}
	}
}

// waitGoroutines fails the test unless the goroutine count returns to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlived the workload (base %d):\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	spec := repoSpec(t)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			cfg := smoke(t, w)
			base := runtime.NumGoroutine()
			var out bytes.Buffer
			res, err := execute(cfg, &out)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct || exitCode(res) != 0 {
				t.Fatalf("fail ratio %d/%d, want 0:\n%s", res.Failed, res.Attempted, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for _, m := range spec.EndToEnd {
				var found bool
				for _, l := range lines {
					f := strings.Fields(l)
					found = found || len(f) == 3 && f[0] == m.Name && f[2] == m.Unit
				}
				if !found {
					t.Errorf("no %q line with unit %s:\n%s", m.Name, m.Unit, out.String())
				}
				if v := res.Metrics[m.Name]; v.Unit != m.Unit || v.Value <= 0 {
					t.Errorf("%s = %+v, want a positive value in %s", m.Name, v, m.Unit)
				}
			}
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			if len(last.Metrics) != len(spec.EndToEnd) {
				t.Errorf("result carries %d metrics, want %d", len(last.Metrics), len(spec.EndToEnd))
			}
			waitGoroutines(t, base)
			if left, _ := filepath.Glob(filepath.Join(cfg.dir, "*")); len(left) > 0 {
				t.Errorf("files left behind: %v", left)
			}
		})
	}
}

func TestTracedSpansAndLayerSums(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			cfg := smoke(t, w)
			base := runtime.NumGoroutine()
			tr := newTracer()
			m, err := workloads[w](cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if _, failed := m.totals(); failed != 0 {
				t.Fatalf("%d traced operations failed", failed)
			}
			if tr.spanCount() == 0 {
				t.Fatal("no spans recorded")
			}
			if err := tr.checkTree(); err != nil {
				t.Fatal(err)
			}
			for _, l := range tr.layers() {
				if l.Self < 0 || l.Self > l.Busy {
					t.Errorf("layer %s: self %v outside [0, busy %v]", l.Name, l.Self, l.Busy)
				}
			}
			if w == "paper12" || w == "scale5000" {
				if s := layerSum(perLayer(tr, 0)); s < 90 || s > 110 {
					t.Errorf("layers sum to %.1f%% of wall x workers, want within 10%%", s)
				}
			}
			waitGoroutines(t, base)
		})
	}
}

func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	spec := repoSpec(t)
	cfg := smoke(t, "paper12")
	cfg.trace = true
	var out bytes.Buffer
	res, err := execute(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run incorrect:\n%s", out.String())
	}
	for _, m := range spec.PerLayer {
		if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("per-layer %s missing or not in %s", m.Name, m.Unit)
		}
	}
	if !strings.Contains(out.String(), "layers sum to") {
		t.Errorf("no layer-sum line:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(cfg.dir, "trace-paper12-seed1.json")); err != nil {
		t.Errorf("trace file: %v", err)
	}
}

// dropRow loses the first row of every answer that has one.
type dropRow struct{ integration.System }

func (d dropRow) Answer(req integration.Request) (*integration.Answer, error) {
	ans, err := d.System.Answer(req)
	if err != nil || len(ans.Rows) == 0 {
		return ans, err
	}
	out := *ans
	out.Rows = ans.Rows[1:]
	return &out, nil
}

// The negative controls show the correctness checks bite: a wrong answer
// or a wrong expected answer fails the run and its exit code.
func TestNegativeControls(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(*testing.T) config
	}{
		{"dropped answer row", func(t *testing.T) config {
			cfg := smoke(t, "paper12")
			cfg.wrapSystem = func(s integration.System) integration.System { return dropRow{s} }
			return cfg
		}},
		{"corrupted scenario truth", func(t *testing.T) config {
			cfg := smoke(t, "scale5000")
			cfg.spoilTruth = func(rows []integration.Row) []integration.Row {
				return append(rows[:len(rows):len(rows)], integration.Row{"source": "nowhere"})
			}
			return cfg
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := execute(tc.cfg(t), &out)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 || res.Correct || exitCode(res) == 0 {
				t.Errorf("failed %d/%d, correct %v: the check did not bite", res.Failed, res.Attempted, res.Correct)
			}
		})
	}
}
