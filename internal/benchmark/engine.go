package benchmark

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"thalia/internal/explain"
	"thalia/internal/faultline"
	"thalia/internal/integration"
	"thalia/internal/telemetry"
)

// ErrQueryTimeout is recorded in a QueryResult when a system's Answer did
// not return within the runner's per-query timeout. The cell scores zero;
// the evaluation of the remaining cells continues.
var ErrQueryTimeout = errors.New("benchmark: query evaluation timed out")

// truth is one query's expected answer within one run. The ground-truth
// rows are the same for every system, so all of a query's cells share one
// truth: the first to need it computes it and the others share the rows
// (or the error). The cell that scores last drops them, so a run holds a
// query's truth only from its first cell to its last. Sharing is safe
// because integration.MatchRows reads its inputs without mutating them.
type truth struct {
	once   sync.Once
	rows   []integration.Row
	err    error
	scored atomic.Int32 // the query's cells scored so far
}

// expected returns q's expected rows, computing them on first use.
func (t *truth) expected(q *Query) ([]integration.Row, error) {
	t.once.Do(func() { t.rows, t.err = q.Expected() })
	return t.rows, t.err
}

// release records one of the query's nsys cells as scored; the last one
// drops the rows and the error.
func (t *truth) release(nsys int) {
	if int(t.scored.Add(1)) == nsys {
		t.rows, t.err = nil, nil
	}
}

// turns hands a resilient run's cells to its workers: each system's cells
// one at a time and in query order, so its circuit breaker observes them
// in order, and otherwise query-major, so the systems' rows advance
// together and a free worker never waits on a busy system.
type turns struct {
	mu   sync.Mutex
	next []int  // each system's next query
	held []bool // the systems whose current cell a worker is running
}

// claim releases system last (none if negative) and returns the next cell
// of the idle system with the lowest next query, ties to the lowest
// index. ok is false when every system with cells left is held: their
// holders run the rest.
func (t *turns) claim(last, nq int) (qi, si int, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if last >= 0 {
		t.held[last] = false
	}
	si = -1
	for i, q := range t.next {
		if !t.held[i] && q < nq && (si < 0 || q < t.next[si]) {
			si = i
		}
	}
	if si < 0 {
		return 0, 0, false
	}
	qi = t.next[si]
	t.next[si]++
	t.held[si] = true
	return qi, si, true
}

// concurrency resolves the runner's worker-pool size: an explicit positive
// Concurrency wins; otherwise one worker per logical CPU.
func (r *Runner) concurrency() int {
	if r.Concurrency > 0 {
		return r.Concurrency
	}
	return runtime.GOMAXPROCS(0)
}

// EvaluateContext runs every benchmark query through the system under ctx
// and scores the outcome against the expected integrated answers. Queries
// are fanned out across the runner's worker pool; see EvaluateAllContext
// for the concurrency contract. Result order is always query order,
// regardless of completion order.
func (r *Runner) EvaluateContext(ctx context.Context, sys integration.System) (*Scorecard, error) {
	cards, err := r.EvaluateAllContext(ctx, sys)
	if err != nil {
		return nil, err
	}
	return cards[0], nil
}

// EvaluateAllContext scores several systems concurrently and returns their
// cards ranked. All query×system cells are spread over a pool of
// r.Concurrency workers (default: one per logical CPU; under a resilience
// policy, at most one per system), so the systems' Answer methods — and
// the catalog materialization they share — must be safe for concurrent
// use; every built-in system is (see integration.System). Cancelling ctx
// abandons the evaluation and returns ctx.Err(). A per-cell timeout
// (r.QueryTimeout) degrades a stuck query to a per-query error instead of
// hanging the run. The ranked cards and the per-query results within them
// are deterministic: identical to the sequential path byte for byte.
func (r *Runner) EvaluateAllContext(ctx context.Context, systems ...integration.System) ([]*Scorecard, error) {
	cards := make([]*Scorecard, len(systems))
	for i, sys := range systems {
		cards[i] = &Scorecard{
			System:      sys.Name(),
			Description: sys.Description(),
			Results:     make([]QueryResult, len(r.Queries)),
		}
	}

	// Workers claim cells query-major: query by query, each query's
	// systems in order. Without a policy any free worker takes the next
	// cell from one counter (cell k is query k/nsys of system k%nsys).
	// Under a resilience policy consecutive-failure counting is
	// order-sensitive, so each circuit breaker must observe its system's
	// cells in query order for same-seed runs to see the same breaker
	// trajectory whatever the scheduling: a system's next cell goes to a
	// free worker only once its previous cell is done (see turns), so at
	// most one worker per system is ever busy.
	nsys, nq := len(systems), len(r.Queries)
	workers := min(r.concurrency(), nsys*nq)
	var next atomic.Int64
	claim := func(int) (qi, si int, ok bool) {
		k := int(next.Add(1) - 1)
		return k / nsys, k % nsys, k < nsys*nq
	}
	var breakers []*faultline.Breaker
	if r.Resilience != nil {
		workers = min(workers, nsys)
		breakers = make([]*faultline.Breaker, nsys)
		for i := range breakers {
			breakers[i] = newBreaker()
		}
		order := &turns{next: make([]int, nsys), held: make([]bool, nsys)}
		claim = func(last int) (int, int, bool) { return order.claim(last, nq) }
	}
	tel := r.Telemetry
	if tel != nil {
		tel.Gauge(MetricWorkers).Set(int64(workers))
	}
	// The flight recorder opens before any worker can emit a cell event,
	// so run_start is always the journal's first record. The telemetry
	// sampler needs a registry to snapshot; without one it stays off.
	jr := r.Journal
	var runStarted time.Time
	stopSampler := func() {}
	if jr != nil {
		names := make([]string, len(systems))
		for i, sys := range systems {
			names[i] = sys.Name()
		}
		var seed int64
		if r.Resilience != nil {
			seed = r.Resilience.JitterSeed
		}
		jr.RunStart(names, nq, workers, r.Resilience != nil, seed)
		runStarted = time.Now()
		if tel != nil {
			var once sync.Once
			stop := startTelemetrySampler(jr, tel)
			stopSampler = func() { once.Do(stop) }
			// A cancelled run still stops the sampler (run_end is the
			// explicit stop on the happy path, so the final snapshot
			// precedes it in the journal).
			defer stopSampler()
		}
	}
	truths := make([]truth, nq)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// A cancelled run stops claiming; a claimed cell still runs.
			last := -1 // the system of this worker's previous cell
			for ctx.Err() == nil {
				qi, si, ok := claim(last)
				if !ok {
					return
				}
				last = si
				var claimed time.Time
				if tel != nil {
					claimed = time.Now()
				}
				var br *faultline.Breaker
				if breakers != nil {
					br = breakers[si]
				}
				t := &truths[qi]
				if tel == nil && jr == nil {
					cards[si].Results[qi] = r.evalCell(ctx, systems[si], r.Queries[qi], t, br)
				} else {
					sysName := systems[si].Name()
					queryID := r.Queries[qi].ID
					var busy *telemetry.Gauge
					if tel != nil {
						tel.HistogramBuckets(MetricQueueWait, queueWaitBuckets).ObserveDuration(time.Since(claimed))
						busy = tel.Gauge(MetricBusyWorkers)
						busy.Inc()
					}
					if jr != nil {
						jr.CellStart(sysName, queryID)
					}
					start := time.Now()
					res := r.evalCell(ctx, systems[si], r.Queries[qi], t, br)
					elapsed := time.Since(start)
					if busy != nil {
						busy.Dec()
					}
					cards[si].Results[qi] = res
					if tel != nil {
						r.recordCell(sysName, r.Queries[qi], res, elapsed)
					}
					if jr != nil {
						jr.CellDone(cellEvent(sysName, res, elapsed))
					}
				}
				t.release(nsys)
				// Workers that never park starve the scheduler: with
				// GOMAXPROCS 2 the GC has only fractional mark workers,
				// which get a P only when the scheduler runs. Yield between
				// cells so collection keeps pace with allocation.
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	if tel != nil && breakers != nil {
		for i, br := range breakers {
			sys := telemetry.L("system", systems[i].Name())
			tel.Gauge(MetricBreakerState, sys).Set(int64(br.State()))
			tel.Gauge(MetricBreakerOpens, sys).Set(br.Opens())
		}
	}
	if err := ctx.Err(); err != nil {
		// A cancelled run's journal ends without run_end — exactly how a
		// crash looks to the reader, and how the projection reports it.
		return nil, err
	}
	ranked := Rank(cards)
	if jr != nil {
		stopSampler() // final telemetry snapshot lands before run_end
		jr.RunEnd(JournalCards(ranked), time.Since(runStarted))
	}
	return ranked, nil
}

// evalCell evaluates one query against one system and scores it. Every
// failure mode — a broken expected answer, a system error, a timeout —
// degrades to a per-query error result, so one bad cell cannot sink a
// multi-system run. With ExplainFailures on, failed cells (declined,
// errored or incorrect) keep their explain trace.
func (r *Runner) evalCell(ctx context.Context, sys integration.System, q *Query, t *truth, br *faultline.Breaker) QueryResult {
	if !r.ExplainFailures {
		return r.evalCellRec(ctx, sys, q, t, nil, br)
	}
	rec := explain.NewRecorder()
	res := r.evalCellRec(ctx, sys, q, t, rec, br)
	if res.Err != "" || !res.Correct {
		res.Explain = rec.Trace()
	} else {
		// Seal a passing cell's recorder so a timeout-abandoned goroutine
		// stops accumulating spans nobody will read.
		rec.Seal()
	}
	return res
}

// evalCellRec is evalCell's core. A non-nil rec wraps the Answer call in
// the cell's eval span and threads the recorder to the system through the
// request context. The eval span is the cell's answer span: on success it
// carries the answer's row count and one transform event per external
// function the answer charged. A nil rec takes the zero-overhead path.
func (r *Runner) evalCellRec(ctx context.Context, sys integration.System, q *Query, t *truth, rec *explain.Recorder, br *faultline.Breaker) QueryResult {
	res := QueryResult{QueryID: q.ID}
	if err := ctx.Err(); err != nil {
		res.Err = err.Error()
		return res
	}
	want, err := t.expected(q)
	if err != nil {
		res.Err = fmt.Sprintf("expected answer: %v", err)
		return res
	}
	req := q.Request()
	var root *explain.Span
	if rec != nil {
		root = rec.Begin(explain.KindEval,
			fmt.Sprintf("q%02d %s", q.ID, sys.Name()),
			explain.A("hetero", q.Case.Name()))
		req = req.WithContext(explain.NewContext(ctx, rec))
	}
	var ans *integration.Answer
	if r.Resilience != nil {
		ans, res.Attempts, err = r.answerResilient(ctx, sys, req, rec, br)
		if err != nil && !errors.Is(err, integration.ErrUnsupported) && ctx.Err() == nil {
			// Exhausted retries (or a permanent fault): the cell degrades
			// to an error result instead of sinking the run.
			res.Degraded = true
			if r.Telemetry != nil {
				r.Telemetry.Counter(MetricDegraded, telemetry.L("system", sys.Name())).Inc()
			}
		}
	} else {
		ans, err = r.answer(ctx, sys, req)
	}
	if err == nil && rec != nil {
		root.SetRows(-1, len(ans.Rows))
		for _, f := range ans.Functions {
			rec.Event(explain.KindTransform, f.Name, explain.A("complexity", strconv.Itoa(f.Complexity)))
		}
	}
	root.End()
	switch {
	case errors.Is(err, integration.ErrUnsupported):
		// Declined: no point, no complexity charge.
	case err != nil:
		res.Supported = true
		res.Err = err.Error()
	default:
		res.Supported = true
		res.Effort = ans.Effort
		res.Functions = ans.Functions
		res.Missing, res.Extra = integration.MatchRows(want, ans.Rows)
		res.Correct = len(res.Missing) == 0 && len(res.Extra) == 0
	}
	return res
}

// Explain evaluates a single query against a single system with an explain
// recorder attached and returns the scored result together with its trace,
// regardless of outcome — the engine behind `thalia explain` and the
// website's /debug/explain endpoint.
func (r *Runner) Explain(ctx context.Context, sys integration.System, queryID int) (QueryResult, *explain.Trace, error) {
	for _, q := range r.Queries {
		if q.ID == queryID {
			rec := explain.NewRecorder()
			res := r.evalCellRec(ctx, sys, q, &truth{}, rec, newBreaker())
			tr := rec.Trace()
			res.Explain = tr
			return res, tr, nil
		}
	}
	return QueryResult{}, nil, fmt.Errorf("benchmark: no query %d in this runner", queryID)
}

// answer invokes sys.Answer, bounding it by the runner's per-query timeout
// and the context; under a resilience policy the timeout bounds each
// attempt. Answer does not take a context (systems model legacy engines),
// so a cell that overruns is abandoned: its goroutine finishes in the
// background and its late result is dropped.
func (r *Runner) answer(ctx context.Context, sys integration.System, req integration.Request) (*integration.Answer, error) {
	d := r.QueryTimeout
	if d <= 0 && ctx.Done() == nil {
		return sys.Answer(req)
	}
	type outcome struct {
		ans *integration.Answer
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		ans, err := sys.Answer(req)
		ch <- outcome{ans, err}
	}()
	var timeout <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case out := <-ch:
		return out.ans, out.err
	case <-timeout:
		return nil, fmt.Errorf("%w after %v (query %d)", ErrQueryTimeout, d, req.QueryID)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
