package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"thalia/internal/benchmark"
	"thalia/internal/catalog"
	"thalia/internal/cohera"
	"thalia/internal/integration"
	"thalia/internal/iwiz"
	"thalia/internal/rewrite"
	"thalia/internal/scenario"
	"thalia/internal/ufmw"
	"thalia/internal/xquery/plan"
)

// concurrency is the engine's worker-pool size in every workload: a
// constant, not the machine's CPU count, so runs on different machines do
// the same work the same way.
const concurrency = 2

// roundLength is the length of one round of the measured window. Each round
// is normalized by its own probes, so a round must be short next to the
// stretches in which the machine's speed changes, and long enough to hold
// several operations of every workload.
const roundLength = 2 * time.Second

// config is one benchmark invocation. main fills it from flags; tests build
// it directly with small sizes.
type config struct {
	workload string
	seed     int64
	window   time.Duration // total measured time of the run
	trace    bool
	dir      string // working directory for journals and trace files
	exe      string // this program, for child processes

	sources  int     // scale5000: sources per scenario
	getRate  float64 // site: GET requests per second
	postRate float64 // site: POST /runs per second

	// Negative-control hooks, set only by tests: wrapSystem replaces every
	// system an engine workload builds, spoilTruth rewrites every expected
	// answer.
	wrapSystem func(integration.System) integration.System
	spoilTruth func([]integration.Row) []integration.Row
}

// defaultConfig is the configuration every real run uses.
func defaultConfig(workload string, seed int64, seconds int, trace bool, dir string) config {
	return config{
		workload: workload, seed: seed, window: time.Duration(seconds) * time.Second,
		trace: trace, dir: dir,
		sources: 5000, getRate: 400, postRate: 10,
	}
}

// rounds is how many rounds the window holds; the last may be short.
func (c config) rounds() int { return max(1, int((c.window+roundLength-1)/roundLength)) }

// round is one slice of the measured window.
type round struct {
	lat    []float64 // operation latencies, ms
	ops    int
	failed int
	cells  int
	wall   time.Duration
	// Process cost over the round, and the cost children reported.
	procCPU   time.Duration
	procAlloc uint64
	opCPU     time.Duration
	opAlloc   uint64
	opRSSKB   []float64

	// site only: GET latencies from their due time, ms.
	req []float64
	// probes and probeCPU are the wall and CPU times of the round's
	// probes, ms.
	probes, probeCPU []float64
}

// opResult is what one closed-loop operation reports.
type opResult struct {
	cells  int
	failed bool
	cpu    time.Duration // cold: the child's CPU time
	alloc  uint64        // cold: the child's allocation
	rssKB  int64         // cold: the child's peak RSS
}

// measurement is a workload's measured window.
type measurement struct {
	rounds   []round
	probed   bool // its rounds were probed, and its times are reported at the reference speed
	children bool // CPU, allocation and RSS are the children's (cold)
	procRSS  float64
	notes    []string // human-readable lines printed before the result
}

func (m *measurement) totals() (attempted, failed int) {
	for _, r := range m.rounds {
		attempted += r.ops + len(r.req)
		failed += r.failed
	}
	return attempted, failed
}

// maxProbesPerPause caps the probes a closed loop runs between two
// operations: a scale5000 pass outlasts several probe intervals.
const maxProbesPerPause = 3

// closedLoop runs op back to back until the window is over, pausing before
// an operation for a probe once every probeEvery. The window is cut into
// rounds of roundLength, and each operation, and the probes just before it,
// count in the round it started in, so a round of a workload whose
// operations outlast it may hold none.
func closedLoop(cfg config, op func(k int) opResult) ([]round, error) {
	if _, err := chaseLinks(); err != nil {
		return nil, err
	}
	rounds := make([]round, cfg.rounds())
	start := time.Now()
	var probed time.Time
	for k := 0; ; k++ {
		var probes, probeCPU []float64
		for n := min(int(time.Since(probed)/probeEvery), maxProbesPerPause); n > 0; n-- {
			wall, cpu := probe()
			probes, probeCPU = append(probes, ms(wall)), append(probeCPU, ms(cpu))
			probed = time.Now()
		}
		t := time.Now()
		elapsed := t.Sub(start)
		if elapsed >= cfg.window {
			return rounds, nil
		}
		rd := &rounds[int(elapsed/roundLength)]
		rd.probes, rd.probeCPU = append(rd.probes, probes...), append(rd.probeCPU, probeCPU...)
		cpu0, alloc0 := processCPU(), totalAlloc()
		res := op(k)
		d := time.Since(t)
		rd.lat = append(rd.lat, ms(d))
		rd.wall += d
		rd.procCPU += processCPU() - cpu0
		rd.procAlloc += totalAlloc() - alloc0
		rd.ops++
		rd.cells += res.cells
		if res.failed {
			rd.failed++
		}
		rd.opCPU += res.cpu
		rd.opAlloc += res.alloc
		if res.rssKB > 0 {
			rd.opRSSKB = append(rd.opRSSKB, float64(res.rssKB))
		}
	}
}

// builtinCells is one evaluation of the built-in systems: 4 systems × 12
// queries.
const builtinCells = 4 * 12

// builtins returns fresh instances of the four built-in systems, as every
// production caller builds them per run.
func builtins() []integration.System {
	return []integration.System{cohera.New(), iwiz.New(), ufmw.New(), rewrite.NewSystem()}
}

// systemKeys names each system's layer in span and metric names.
var systemKeys = map[string]string{
	"Cohera": "cohera", "IWIZ": "iwiz", "UF Full Mediator": "ufmw",
	"Declarative Mediator": "rewrite", "scenario-mediator": "scenario",
}

// systemOrder lists the system layers in metric order.
var systemOrder = []string{"cohera", "iwiz", "ufmw", "rewrite", "scenario"}

// referenceDigest evaluates the built-in systems once on the sequential
// reference runner; every parallel run must reproduce its digest.
func referenceDigest() (string, error) {
	cards, err := benchmark.NewSequentialRunner().EvaluateAll(builtins()...)
	if err != nil {
		return "", err
	}
	return benchmark.ScorecardDigest(cards), nil
}

// rowCapture collects one operation's expected and actual rows for the
// match replay.
type rowCapture struct {
	mu      sync.Mutex // truth runs on the engine's workers
	want    map[int][]integration.Row
	systems []*tracedSystem
}

// engineRun evaluates queries on systems with a fresh runner (streaming for
// generated scenarios), under spans parented at parent when traced. It is
// the one evaluation path every engine workload shares.
func engineRun(cfg config, tr *tracer, parent int64, op string, systems []integration.System,
	queries []*benchmark.Query, rc *rowCapture) ([]*benchmark.Scorecard, error) {
	var runner *benchmark.Runner
	if queries == nil {
		runner = benchmark.NewRunner()
	} else {
		runner = benchmark.NewStreamingRunner(queries)
	}
	runner.Concurrency = concurrency
	sp := tr.start("engine", parent, op)
	parent = sp.id
	if cfg.wrapSystem != nil {
		for i, s := range systems {
			systems[i] = cfg.wrapSystem(s)
		}
	}
	if cfg.spoilTruth != nil || tr != nil {
		runner.Queries = withTruth(runner.Queries, func(q *benchmark.Query) ([]integration.Row, error) {
			sp := tr.start("truth", parent, op)
			rows, err := q.Expected()
			sp.end(err)
			if cfg.spoilTruth != nil {
				rows = cfg.spoilTruth(rows)
			}
			if rc != nil {
				rc.mu.Lock()
				rc.want[q.ID] = rows
				rc.mu.Unlock()
			}
			return rows, err
		})
	}
	if tr != nil {
		runner.Telemetry = tr.reg
		for i, s := range systems {
			ts := &tracedSystem{System: s, key: systemKeys[s.Name()], tr: tr, parent: parent, op: op,
				seen: map[requestKey]bool{}}
			if rc != nil {
				ts.captured = map[int][]integration.Row{}
				rc.systems = append(rc.systems, ts)
			}
			systems[i] = ts
		}
	}
	cards, err := runner.EvaluateAll(systems...)
	sp.end(err)
	return cards, err
}

// withTruth returns copies of qs whose expected answers come from truth.
func withTruth(qs []*benchmark.Query, truth func(q *benchmark.Query) ([]integration.Row, error)) []*benchmark.Query {
	out := make([]*benchmark.Query, len(qs))
	for i, q := range qs {
		q := q
		out[i] = benchmark.NewQuery(q.ID, q.Case, q.Name, q.XQuery, q.Reference, q.ChallengeSource, q.Fields,
			func() ([]integration.Row, error) { return truth(q) })
	}
	return out
}

// evaluateBuiltins is one paper12 run: build fresh systems, evaluate the
// twelve queries, fingerprint the ranked scorecards.
func evaluateBuiltins(cfg config, tr *tracer, parent int64, op string, rc *rowCapture) (string, int, error) {
	sp := tr.start("build", parent, op)
	systems := builtins()
	sp.end(nil)
	cards, err := engineRun(cfg, tr, parent, op, systems, nil, rc)
	if err != nil {
		return "", 0, err
	}
	sp = tr.start("digest", parent, op)
	digest := benchmark.ScorecardDigest(cards)
	sp.end(nil)
	cells := 0
	for _, c := range cards {
		cells += len(c.Results)
	}
	return digest, cells, nil
}

// measurePaper12 is the closed loop over paper12 runs.
func measurePaper12(cfg config, tr *tracer) (*measurement, error) {
	if err := catalog.MaterializeAll(concurrency); err != nil {
		return nil, err
	}
	ref, err := referenceDigest()
	if err != nil {
		return nil, err
	}
	var first *rowCapture
	rt := startRuntimeWatch(tr)
	rounds, err := closedLoop(cfg, func(k int) opResult {
		op := fmt.Sprintf("run-%d", k)
		if tr != nil && k == 0 {
			first = &rowCapture{want: map[int][]integration.Row{}}
		}
		root := tr.start("run", 0, op)
		digest, cells, err := evaluateBuiltins(cfg, tr, root.id, op, firstOnly(k, first))
		root.end(err)
		return opResult{cells: cells, failed: err != nil || digest != ref}
	})
	if err != nil {
		return nil, err
	}
	m := &measurement{rounds: rounds, probed: true, procRSS: processRSSKB()}
	if tr != nil {
		ops, cells := m.opsCells()
		rt.finish(ops, cells)
		noteEngine(tr, ops)
		replayMatch(tr, first)
	}
	return m, nil
}

// measureScale is the closed loop over streaming scenario passes; pass k
// generates its scenario from seed S+k, so no cache keyed by the inputs can
// serve a later pass.
func measureScale(cfg config, tr *tracer) (*measurement, error) {
	var first *rowCapture
	rt := startRuntimeWatch(tr)
	rounds, err := closedLoop(cfg, func(k int) opResult {
		op := fmt.Sprintf("pass-%d", k)
		if tr != nil && k == 0 {
			first = &rowCapture{want: map[int][]integration.Row{}}
		}
		root := tr.start("run", 0, op)
		ok, err := scalePass(cfg, tr, root.id, op, cfg.seed+int64(k), firstOnly(k, first))
		root.end(err)
		return opResult{cells: cfg.sources, failed: err != nil || !ok}
	})
	if err != nil {
		return nil, err
	}
	m := &measurement{rounds: rounds, probed: true, procRSS: processRSSKB()}
	if tr != nil {
		ops, cells := m.opsCells()
		rt.finish(ops, cells)
		noteEngine(tr, ops)
		replayMatch(tr, first)
	}
	return m, nil
}

// firstOnly hands the row capture to the first operation only: the match
// replay needs one operation's rows, and holding every operation's would
// change the memory the run measures.
func firstOnly(k int, rc *rowCapture) *rowCapture {
	if k != 0 {
		return nil
	}
	return rc
}

// scalePass generates one scenario and evaluates it on a streaming runner.
// It passes when every cell is correct and no more documents were live at
// once than the engine has workers.
func scalePass(cfg config, tr *tracer, parent int64, op string, seed int64, rc *rowCapture) (bool, error) {
	sp := tr.start("build", parent, op)
	sc, err := scenario.New(scenario.Params{Sources: cfg.sources, Seed: seed})
	if err != nil {
		sp.end(err)
		return false, err
	}
	queries := sc.Queries()
	sp.end(nil)
	med := sc.NewMediator()
	cards, err := engineRun(cfg, tr, parent, op, []integration.System{med}, queries, rc)
	if err != nil {
		return false, err
	}
	builds, _, highWater := med.Docs().Stats()
	tr.note("scenario.docs_built_per_cell", float64(builds)/float64(cfg.sources))
	tr.note("scenario.docs_high_water", float64(highWater))
	return cards[0].CorrectCount() == cfg.sources && highWater <= concurrency, nil
}

// coldReport is what a cold child prints: its digest, allocation, peak
// resident set, testbed materialization time and, when traced, its trace.
type coldReport struct {
	Digest        string     `json:"digest"`
	AllocBytes    uint64     `json:"alloc_bytes"`
	PeakRSSKB     int64      `json:"peak_rss_kb"`
	MaterializeNS int64      `json:"materialize_ns"`
	Trace         *traceDump `json:"trace,omitempty"`
}

// coldChild is the cold workload's child process: materialize the testbed,
// evaluate the built-in systems once, report, exit.
func coldChild(cfg config) (*coldReport, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rt := startRuntimeWatch(tr)
	sp := tr.start("materialize", 0, "cold")
	start := time.Now()
	err := catalog.MaterializeAll(concurrency)
	mat := time.Since(start)
	sp.end(err)
	if err != nil {
		return nil, err
	}
	var rc *rowCapture
	if tr != nil {
		rc = &rowCapture{want: map[int][]integration.Row{}}
	}
	digest, cells, err := evaluateBuiltins(cfg, tr, 0, "cold", rc)
	if err != nil {
		return nil, err
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	rss, err := ownPeakRSSKB()
	if err != nil {
		return nil, err
	}
	rep := &coldReport{Digest: digest, AllocBytes: mem.TotalAlloc, PeakRSSKB: rss, MaterializeNS: mat.Nanoseconds()}
	if tr != nil {
		rt.finish(1, cells)
		noteEngine(tr, 1)
		replayMatch(tr, rc)
		d := tr.dump()
		rep.Trace = &d
	}
	return rep, nil
}

// measureCold is the closed loop over cold child processes, one at a time.
func measureCold(cfg config, tr *tracer) (*measurement, error) {
	ref, err := referenceDigest()
	if err != nil {
		return nil, err
	}
	rounds, err := closedLoop(cfg, func(k int) opResult {
		root := tr.start("run", 0, fmt.Sprintf("child-%d", k))
		res, digest, err := spawnCold(cfg, tr != nil, tr, root.id)
		root.end(err)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: cold child:", err)
		}
		res.failed = err != nil || digest != ref
		return res
	})
	if err != nil {
		return nil, err
	}
	return &measurement{rounds: rounds, probed: true, children: true}, nil
}

// spawnCold runs one cold child, traced or not, and returns its cost and
// digest; its materialization time is noted on tr either way.
func spawnCold(cfg config, traced bool, tr *tracer, parent int64) (opResult, string, error) {
	args := []string{"-child", "cold", "-workload", "cold", "-dir", cfg.dir}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(cfg.exe, args...)
	cmd.Stderr = os.Stderr
	spawned := time.Now()
	res := opResult{cells: builtinCells}
	out, err := cmd.Output()
	if err != nil {
		return res, "", err
	}
	var rep coldReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return res, "", fmt.Errorf("cold child output: %w", err)
	}
	res.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	res.alloc = rep.AllocBytes
	res.rssKB = rep.PeakRSSKB
	tr.note("catalog.materialize_ns", float64(rep.MaterializeNS))
	if rep.Trace != nil {
		tr.adopt(*rep.Trace, spawned, parent)
	}
	return res, rep.Digest, nil
}

func (m *measurement) opsCells() (ops, cells int) {
	for _, r := range m.rounds {
		ops += r.ops
		cells += r.cells
	}
	return ops, cells
}

// noteEngine turns the traced window's engine telemetry into per-run notes:
// the engine's own per-cell time and the queue-wait tail.
func noteEngine(tr *tracer, ops int) {
	if ops == 0 {
		return
	}
	var cellSeconds float64
	for _, h := range tr.reg.Snapshot().Histograms {
		if h.Name == benchmark.MetricEvalLatency {
			cellSeconds += h.Sum
		}
	}
	tr.note("engine.cell_ns", cellSeconds*1e9/float64(ops))
	qw := tr.reg.Histogram(benchmark.MetricQueueWait)
	if tailSupported(int(qw.Count()), 0.99) {
		tr.note("engine.queue_wait_p99_ns", qw.Quantile(0.99)*1e9)
	}
}

// replayMatch times integration.MatchRows over one operation's captured
// (expected, actual) pairs — the matching the engine did inside each cell —
// and notes the per-operation cost.
func replayMatch(tr *tracer, rc *rowCapture) {
	if rc == nil {
		return
	}
	type pair struct{ want, got []integration.Row }
	var pairs []pair
	rows := 0
	for _, s := range rc.systems {
		for qid, got := range s.captured {
			pairs = append(pairs, pair{rc.want[qid], got})
			rows += len(rc.want[qid]) + len(got)
		}
	}
	const reps = 20
	start := time.Now()
	for i := 0; i < reps; i++ {
		for _, p := range pairs {
			integration.MatchRows(p.want, p.got)
		}
	}
	tr.note("match.busy_ns", float64(time.Since(start).Nanoseconds())/reps)
	tr.note("match.calls", float64(len(pairs)))
	tr.note("match.rows", float64(rows))
}

// runtimeWatch measures process-wide state over a traced window: GC cycles
// and pauses, the peak of live heap objects sampled every few
// milliseconds, and the process-wide plan cache's hits and misses.
type runtimeWatch struct {
	tr             *tracer
	ms0            runtime.MemStats
	hits0, misses0 int64
	stop           chan struct{}
	done           chan struct{}
	peak           uint64
}

func startRuntimeWatch(tr *tracer) *runtimeWatch {
	if tr == nil {
		return nil
	}
	w := &runtimeWatch{tr: tr, stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&w.ms0)
	w.hits0, w.misses0 = plan.DefaultCacheStats()
	go func() {
		defer close(w.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			w.peak = max(w.peak, sample[0].Value.Uint64())
			select {
			case <-t.C:
			case <-w.stop:
				return
			}
		}
	}()
	return w
}

// finish stops the sampler and notes the window's runtime cost per
// operation.
func (w *runtimeWatch) finish(ops, cells int) {
	if w == nil {
		return
	}
	close(w.stop)
	<-w.done
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	hits, misses := plan.DefaultCacheStats()
	w.tr.note("xquery.plan_cache_hits", float64(hits-w.hits0))
	w.tr.note("xquery.plan_cache_misses", float64(misses-w.misses0))
	if ops == 0 || cells == 0 {
		return
	}
	w.tr.note("runtime.gc_cycles_per_kcell", float64(ms1.NumGC-w.ms0.NumGC)*1000/float64(cells))
	w.tr.note("runtime.gc_pause_ns", float64(ms1.PauseTotalNs-w.ms0.PauseTotalNs)/float64(ops))
	w.tr.note("runtime.heap_peak_bytes", float64(w.peak))
}

// processCPU is this process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ownPeakRSSKB is the peak resident set, in KiB, of this process's own
// memory since it started. A child cannot use getrusage for it: Linux
// carries the parent's peak across fork and exec into the child's.
func ownPeakRSSKB() (int64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// processRSSKB is this process's peak resident set size in KiB.
func processRSSKB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss)
}

// totalAlloc is the bytes this process has allocated on the heap so far,
// read without stopping the world, so it can bracket every operation.
func totalAlloc() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
