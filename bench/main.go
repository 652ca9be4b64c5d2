// Command bench is THALIA's end-to-end benchmark: four workloads that time
// real integration work — fresh systems per run, no cache surviving into
// the next timed operation — and report end-to-end metrics, or with
// -trace 1 per-layer metrics from spans the benchmark records around its
// calls into each layer. See README.md for the metrics and workloads.
//
//	bash bench/run.sh --workload paper12 --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh -collect set.json [-seed 1]
//	bash bench/run.sh -compare a.json b.json
//
// An untraced run prints every end-to-end metric as "name value unit",
// then one JSON result line, and exits 1 when any correctness check
// failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"time"

	"thalia/internal/catalog"
	"thalia/internal/scenario"
)

// setupSpawns is how many fresh child processes setup_s is the median of.
// Spawn-to-ready times on a shared machine vary by 2x from one spawn to the
// next, so the median needs more than a handful.
const setupSpawns = 9

// workloads maps each workload to its measurement.
var workloads = map[string]func(config, *tracer) (*measurement, error){
	"paper12":   measurePaper12,
	"cold":      measureCold,
	"scale5000": measureScale,
	"site":      measureSite,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "paper12 | cold | scale5000 | site")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	dir := fs.String("dir", ".bench_build", "working directory for journals and trace files")
	child := fs.String("child", "", "run as a child process: setup | cold")
	compare := fs.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	collect := fs.String("collect", "", fmt.Sprintf("run every workload %d times and write the result set here", setRuns))
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *compare || *collect != "" {
		spec, err := readSpec(specFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if *compare {
			if fs.NArg() != 2 {
				fmt.Fprintln(os.Stderr, "bench: usage: -compare a.json b.json")
				return 2
			}
			return compareSets(spec, fs.Arg(0), fs.Arg(1), stdout)
		}
		if err := collectSet(spec, *collect, *seed, exe, *dir); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (paper12 | cold | scale5000 | site)\n", *workload)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	cfg := defaultConfig(*workload, *seed, *seconds, *trace == 1, *dir)
	cfg.exe = exe
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *child != "" {
		return childMain(cfg, *child, stdout)
	}
	res, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return exitCode(res)
}

// exitCode is 1 when any correctness check of the run failed.
func exitCode(res *result) int {
	if res.Correct {
		return 0
	}
	return 1
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute runs one workload and prints its metrics and result line.
func execute(cfg config, out io.Writer) (*result, error) {
	var (
		specs []metricSpec
		vals  map[string]float64
		ms    []*measurement
		lines []string
		err   error
	)
	if cfg.trace {
		specs = perLayerSpecs
		vals, ms, lines, err = tracedRun(cfg)
	} else {
		specs = endToEndSpecs
		var setup float64
		if setup, err = measureSetup(cfg); err != nil {
			return nil, err
		}
		var m *measurement
		if m, err = workloads[cfg.workload](cfg, nil); err != nil {
			return nil, err
		}
		ms = []*measurement{m}
		vals, lines, err = endToEnd(m, setup)
	}
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metricValue{}}
	for _, m := range ms {
		a, f := m.totals()
		res.Attempted += a
		res.Failed += f
		lines = append(lines, m.notes...)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, s := range specs {
		res.Metrics[s.name] = metricValue{Value: vals[s.name], Unit: s.unit}
		fmt.Fprintf(out, "%s %v %s\n", s.name, vals[s.name], s.unit)
	}
	for _, l := range lines {
		fmt.Fprintln(out, "#", l)
	}
	fmt.Fprintf(out, "# %s: %d attempted, %d failed\n", cfg.workload, res.Attempted, res.Failed)
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, string(raw))
	return res, nil
}

// roundMetrics are one round's time metrics, as measured and at the
// reference speed.
type roundMetrics struct {
	run, req, cpu          float64 // at the reference speed: ms, ms, µs per cell
	rawRun, rawReq, rawCPU float64 // as measured
	speed, cpuSpeed        float64 // wall and CPU time over the reference
	cellsPerS              float64
}

// normalized returns the time metrics of every round that holds operations
// and, if the measurement was probed, probes. A probed round's speeds are
// its median probe wall and CPU times over refProbe and refProbeCPU, so
// dividing by them gives what the round would have measured at the
// reference speed; an unprobed round's speeds are 1. A round's requests are
// site's GETs; on the closed-loop workloads the run is the only request.
func (m *measurement) normalized() []roundMetrics {
	var out []roundMetrics
	for _, r := range m.rounds {
		if len(r.lat) == 0 || r.cells == 0 || m.probed && len(r.probes) == 0 {
			continue // a scale5000 pass can outlast a round
		}
		c := r.procCPU
		if m.children {
			c = r.opCPU
		}
		reqs := r.lat
		if len(r.req) > 0 {
			reqs = r.req
		}
		rm := roundMetrics{rawRun: median(r.lat), rawReq: median(reqs),
			rawCPU: float64(c.Microseconds()) / float64(r.cells), speed: 1, cpuSpeed: 1,
			cellsPerS: float64(r.cells) / r.wall.Seconds()}
		if m.probed {
			rm.speed = median(r.probes) / ms(refProbe)
			rm.cpuSpeed = median(r.probeCPU) / ms(refProbeCPU)
		}
		rm.run, rm.req, rm.cpu = rm.rawRun/rm.speed, rm.rawReq/rm.speed, rm.rawCPU/rm.cpuSpeed
		out = append(out, rm)
	}
	return out
}

// medianOf is the median over rounds of one field.
func medianOf(rs []roundMetrics, f func(roundMetrics) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// endToEnd derives the end-to-end metrics from an untraced window: each
// time metric is the median over rounds at the reference speed, allocation
// per cell is the window's total over its cells.
func endToEnd(m *measurement, setup float64) (map[string]float64, []string, error) {
	rs := m.normalized()
	if len(rs) == 0 {
		return nil, nil, fmt.Errorf("no operation completed in the window")
	}
	var alloc uint64
	cells := 0
	for _, r := range m.rounds {
		a := r.procAlloc
		if m.children {
			a = r.opAlloc
		}
		alloc += a
		cells += r.cells
	}
	rss := m.procRSS
	if m.children {
		// The children's mean peak: their RSS moves in whole pages, so a
		// median would read identically run after run and hide small shifts.
		var sum float64
		var n int
		for _, r := range m.rounds {
			for _, kb := range r.opRSSKB {
				sum += kb
				n++
			}
		}
		rss = sum / float64(max(n, 1))
	}
	vals := map[string]float64{
		"setup_s":           setup,
		"run_ms_p50":        medianOf(rs, func(r roundMetrics) float64 { return r.run }),
		"req_ms_p50":        medianOf(rs, func(r roundMetrics) float64 { return r.req }),
		"cpu_us_per_cell":   medianOf(rs, func(r roundMetrics) float64 { return r.cpu }),
		"alloc_kb_per_cell": float64(alloc) / 1024 / float64(max(cells, 1)),
		"max_rss_mb":        rss / 1024,
	}
	lines := []string{
		fmt.Sprintf("as measured, median of %d rounds: run_ms_p50 %.4f ms, req_ms_p50 %.4f ms, cpu_us_per_cell %.2f, cells_per_s %.1f",
			len(rs), medianOf(rs, func(r roundMetrics) float64 { return r.rawRun }),
			medianOf(rs, func(r roundMetrics) float64 { return r.rawReq }),
			medianOf(rs, func(r roundMetrics) float64 { return r.rawCPU }),
			medianOf(rs, func(r roundMetrics) float64 { return r.cellsPerS })),
	}
	if m.probed {
		speeds := make([]float64, len(rs))
		for i, r := range rs {
			speeds[i] = r.speed
		}
		lines = append(lines, fmt.Sprintf("probe time over reference: wall median %.3f (rounds %.3f-%.3f), CPU median %.3f",
			median(speeds), slices.Min(speeds), slices.Max(speeds),
			medianOf(rs, func(r roundMetrics) float64 { return r.cpuSpeed })))
	}
	var runs, reqs []float64
	for _, r := range m.rounds {
		runs = append(runs, r.lat...)
		reqs = append(reqs, r.req...)
	}
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"run", runs}, {"req", reqs}} {
		for _, p := range []float64{0.9, 0.99} {
			if v, err := percentile(s.xs, p); err == nil {
				lines = append(lines, fmt.Sprintf("%s_ms_p%g %.4f ms wall clock (n=%d)", s.name, p*100, v, len(s.xs)))
			}
		}
	}
	return vals, lines, nil
}

// measureSetup spawns setupSpawns fresh children and returns the median
// time from spawn to ready.
func measureSetup(cfg config) (float64, error) {
	if cfg.workload == "site" {
		defer removeAll(historyDir(cfg))
		if err := writeHistory(cfg); err != nil {
			return 0, err
		}
	}
	var ts []float64
	for i := 0; i < setupSpawns; i++ {
		cmd := exec.Command(cfg.exe, "-child", "setup", "-workload", cfg.workload,
			"-seed", fmt.Sprint(cfg.seed), "-dir", cfg.dir)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(start)
		_, _ = io.Copy(io.Discard, stdout)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("setup child: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return 0, fmt.Errorf("setup child printed %q (%v)", line, rerr)
		}
		ts = append(ts, d.Seconds())
	}
	return median(ts), nil
}

// childMain runs a child process's part: a workload's setup ending in a
// "ready" line, or one cold evaluation reported as JSON.
func childMain(cfg config, mode string, stdout io.Writer) int {
	var err error
	switch mode {
	case "setup":
		err = setupChild(cfg, stdout)
	case "cold":
		var rep *coldReport
		if rep, err = coldChild(cfg); err == nil {
			err = json.NewEncoder(stdout).Encode(rep)
		}
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

// setupChild does what a workload must do before it can measure, then
// prints "ready".
func setupChild(cfg config, stdout io.Writer) error {
	switch cfg.workload {
	case "paper12":
		if err := catalog.MaterializeAll(concurrency); err != nil {
			return err
		}
		if _, err := referenceDigest(); err != nil {
			return err
		}
	case "cold":
		if err := catalog.MaterializeAll(concurrency); err != nil {
			return err
		}
	case "scale5000":
		sc, err := scenario.New(scenario.Params{Sources: cfg.sources, Seed: cfg.seed})
		if err != nil {
			return err
		}
		sc.Queries()
	case "site":
		site, err := openSite(historyDir(cfg))
		if err != nil {
			return err
		}
		s, err := startSite(site, nil)
		if err != nil {
			return err
		}
		defer s.close()
	}
	_, err := fmt.Fprintln(stdout, "ready")
	return err
}

// tracedRun measures half the window untraced and half traced, then runs
// the replays, and returns the per-layer metrics.
func tracedRun(cfg config) (map[string]float64, []*measurement, []string, error) {
	measure := workloads[cfg.workload]
	half := cfg
	half.window /= 2
	plain, err := measure(half, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	tr := newTracer()
	traced, err := measure(half, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := replays(cfg, tr); err != nil {
		return nil, nil, nil, err
	}
	if err := tr.checkTree(); err != nil {
		return nil, nil, nil, err
	}
	vals := perLayer(tr, overheadPct(plain, traced))
	for i := range plain.notes {
		plain.notes[i] = "untraced half: " + plain.notes[i]
	}
	for i := range traced.notes {
		traced.notes[i] = "traced half: " + traced.notes[i]
	}
	var lines []string
	for _, l := range tr.layers() {
		lines = append(lines, fmt.Sprintf("layer %-22s count=%d busy_ms=%.3f self_ms=%.3f errors=%d",
			l.Name, l.Count, ms(l.Busy), ms(l.Self), l.Errors))
	}
	if s := layerSum(vals); s > 0 {
		lines = append(lines, fmt.Sprintf("engine layers sum to %.1f%% of wall x workers", s))
	}
	path := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, nil, nil, err
	}
	lines = append(lines, "spans written to "+path)
	return vals, []*measurement{plain, traced}, lines, nil
}

// replays times, outside the measured window, the layers a workload's spans
// cannot separate.
func replays(cfg config, tr *tracer) error {
	if err := replayTestbed(tr); err != nil {
		return err
	}
	if cfg.workload == "scale5000" {
		if err := replayScenario(tr, cfg); err != nil {
			return err
		}
	} else if err := replayBuiltins(tr); err != nil {
		return err
	}
	if cfg.workload != "cold" {
		for i := 0; i < 3; i++ {
			if _, _, err := spawnCold(cfg, false, tr, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// overheadPct is what tracing cost: the rise in median request latency at
// the reference speed — a run on the engine workloads, a GET on site.
func overheadPct(plain, traced *measurement) float64 {
	req := func(m *measurement) float64 {
		return medianOf(m.normalized(), func(r roundMetrics) float64 { return r.req })
	}
	p, t := req(plain), req(traced)
	if p == 0 {
		return 0
	}
	return 100 * (t - p) / p
}
