package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // 0 means refused
	}{
		{0, 0.5, 0},
		{1, 0.5, 1},
		{6, 0.5, 3.5},
		{99, 0.9, 0},
		{100, 0.9, 90},
		{999, 0.99, 0},
		{1000, 0.99, 990},
		{5000, 0.99, 4950},
		{10, 1, 0},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want refused", tc.p*100, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", tc.p*100, tc.n, got, err, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 2.7, 2.9, 3.3, 3.0}, 2.8, 3.2},
		{[]float64{5, 1}, 0, 6},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 90},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-9 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// fakeRound is a round of n operations at lat ms each over 48-cell runs, on
// a machine running at 1/slow of the reference speed: every time it
// measures, its probes too, is slow times the reference.
func fakeRound(n int, lat, slow float64) round {
	r := round{ops: n, cells: 48 * n, wall: time.Second,
		procCPU:   time.Duration(float64(n)*48*slow) * time.Microsecond,
		procAlloc: uint64(n) * 48 * 1024}
	for i := 0; i < n; i++ {
		r.lat = append(r.lat, slow*(lat+float64(i%3)*0.01))
	}
	for i := 0; i < 5; i++ {
		r.probes = append(r.probes, slow*ms(refProbe)*(1+float64(i%2)*0.01))
		r.probeCPU = append(r.probeCPU, slow*ms(refProbeCPU)*(1+float64(i%2)*0.01))
	}
	return r
}

func TestMedianOfNormalizedRounds(t *testing.T) {
	// Three rounds of the same code: one on a quiet machine, one at half
	// speed, one at a third. Normalized, each reads 3.01 ms and 1 µs/cell.
	m := &measurement{rounds: []round{fakeRound(20, 3, 1), fakeRound(20, 3, 2), fakeRound(20, 3, 3)}, probed: true, procRSS: 2048}
	vals, _, err := endToEnd(m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"run_ms_p50": 3.01, "req_ms_p50": 3.01, "cpu_us_per_cell": 1,
		"alloc_kb_per_cell": 1, "max_rss_mb": 2, "setup_s": 0.5,
	} {
		if got := vals[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// A slow round normalizes like the others; a round of slower code does
	// not, and the median over rounds keeps one such round from moving the
	// result.
	m.rounds = append(m.rounds, fakeRound(20, 30, 1))
	if vals, _, err := endToEnd(m, 0.5); err != nil || math.Abs(vals["run_ms_p50"]-3.01) > 1e-9 {
		t.Errorf("with a slow-code round: run_ms_p50 = %v, %v", vals["run_ms_p50"], err)
	}
	m.rounds[3] = round{} // a pass that outlasts its round leaves the next one empty
	if vals, _, err := endToEnd(m, 0.5); err != nil || math.Abs(vals["run_ms_p50"]-3.01) > 1e-9 {
		t.Errorf("with an empty round: run_ms_p50 = %v, %v", vals["run_ms_p50"], err)
	}
	// Site is not probed: its times are wall clock, and its requests are its
	// GETs, not its runs.
	site := &measurement{rounds: []round{fakeRound(20, 3, 2)}}
	site.rounds[0].req = []float64{2, 2, 4}
	if vals, _, err := endToEnd(site, 0.5); err != nil || vals["req_ms_p50"] != 2 || math.Abs(vals["run_ms_p50"]-6.02) > 1e-9 {
		t.Errorf("site: req_ms_p50 = %v, run_ms_p50 = %v, %v; want 2 and 6.02 wall clock", vals["req_ms_p50"], vals["run_ms_p50"], err)
	}
	m.rounds = []round{{}, {}}
	if _, _, err := endToEnd(m, 0.5); err == nil {
		t.Error("a window without operations must fail the run")
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 101, 99, 100}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"same", steady, scaled(steady, 1.02), true, "ok"},
		{"slower", steady, scaled(steady, 1.2), true, "regressed"},
		{"faster", steady, scaled(steady, 0.8), true, "better"},
		{"higher is better", steady, scaled(steady, 0.8), false, "regressed"},
		{"noisy", noisy, scaled(noisy, 1.05), true, "unresolved"},
		{"noisy but every run better", noisy, scaled(noisy, 0.3), true, "better"},
	} {
		if got := verdict(tc.a, tc.b, 0.1, tc.lowerBetter); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	var spec benchSpec
	raw := `{"workloads":[{"name":"paper12"}],"end_to_end":[{"name":"run_ms_p50","unit":"ms","better":"lower","bound":0.1}]}`
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatal(err)
	}
	write := func(name string, vals ...float64) string {
		var rs []result
		for _, v := range vals {
			rs = append(rs, result{Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"run_ms_p50": {Value: v, Unit: "ms"}}})
		}
		raw, err := json.Marshal(resultSet{"paper12": rs})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 10, 10.1, 9.9, 10, 10.05)
	same := write("same.json", 10.1, 10, 10.2, 9.9, 10)
	slow := write("slow.json", 13, 13.1, 12.9, 13, 13.05)
	noisy := write("noisy.json", 6, 14, 8, 12, 10)
	for _, tc := range []struct {
		b        string
		code     int
		contains string
	}{
		{same, 0, "ok"},
		{slow, 1, "regressed"},
		{noisy, 0, "unresolved"},
	} {
		var out bytes.Buffer
		if code := compareSets(&spec, a, tc.b, &out); code != tc.code {
			t.Errorf("compare %s: exit %d, want %d\n%s", filepath.Base(tc.b), code, tc.code, out.String())
		}
		if !strings.Contains(out.String(), tc.contains) {
			t.Errorf("compare %s: output lacks %q:\n%s", filepath.Base(tc.b), tc.contains, out.String())
		}
	}
}
