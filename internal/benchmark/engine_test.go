package benchmark

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thalia/internal/cohera"
	"thalia/internal/faultline"
	"thalia/internal/hetero"
	"thalia/internal/integration"
	"thalia/internal/iwiz"
	"thalia/internal/journal"
	"thalia/internal/rewrite"
	"thalia/internal/telemetry"
	"thalia/internal/ufmw"
)

// fakeSystem answers every query via fn; used to exercise engine plumbing
// (timeouts, cancellation, ordering) without the real testbed.
type fakeSystem struct {
	name string
	fn   func(req integration.Request) (*integration.Answer, error)
}

func (f *fakeSystem) Name() string        { return f.name }
func (f *fakeSystem) Description() string { return "fake system for engine tests" }
func (f *fakeSystem) Answer(req integration.Request) (*integration.Answer, error) {
	return f.fn(req)
}

// allSystems returns fresh instances of the four built-in systems.
func allSystems() []integration.System {
	return []integration.System{cohera.New(), iwiz.New(), ufmw.New(), rewrite.NewSystem()}
}

// renderCards renders ranked scorecards to the exact bytes a user sees.
func renderCards(cards []*Scorecard) string {
	var b strings.Builder
	b.WriteString(Comparison(cards))
	for _, c := range cards {
		b.WriteString(c.Format())
	}
	return b.String()
}

// paper12AllocBudget caps the allocations of one sequential EvaluateAll of
// fresh instances of the four built-in systems: the paper's twelve queries
// against each. A run takes about 13250 with the mapping kernels as byte
// scanners, the lexicons and the Declarative Mediator's global queries
// built once, and each row keyed in one buffer; it took about 13760 when
// every Declarative Mediator answer rebuilt all twelve global queries, and
// about 20400 when the kernels were regular expressions, every system
// built its own lexicon and Row.Key joined a slice of pairs.
const paper12AllocBudget = 14000

func TestPaper12AllocationBudget(t *testing.T) {
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := NewSequentialRunner().EvaluateAll(allSystems()...); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per run", allocs)
	if allocs > paper12AllocBudget {
		t.Errorf("%.0f allocations per run, budget %d", allocs, paper12AllocBudget)
	}
}

// TestPaper12DigestPinned pins the paper's twelve queries over the four
// built-in systems to a committed golden: fresh systems evaluated through
// NewRunner at pools 1, 2 and 8 must produce the scorecard digest in
// testdata/paper12.digest. Any change to a score, an effort charge or a
// ranked answer moves the digest; rewrite the golden only for a change
// meant to move them, and say so.
func TestPaper12DigestPinned(t *testing.T) {
	golden, err := os.ReadFile("testdata/paper12.digest")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(golden))
	for _, pool := range []int{1, 2, 8} {
		r := NewRunner()
		r.Concurrency = pool
		cards, err := r.EvaluateAll(allSystems()...)
		if err != nil {
			t.Fatalf("pool %d: %v", pool, err)
		}
		if got := ScorecardDigest(cards); got != want {
			t.Errorf("pool %d: scorecard digest %s, want %s", pool, got, want)
		}
	}
}

// The concurrent engine must be invisible in the output: whatever the pool
// size, the ranked scorecards are byte-identical to the sequential path.
func TestParallelMatchesSequentialByteIdentical(t *testing.T) {
	seq, err := NewSequentialRunner().EvaluateAll(allSystems()...)
	if err != nil {
		t.Fatal(err)
	}
	want := renderCards(seq)
	for _, workers := range []int{0, 2, 3, 7, 16} {
		r := &Runner{Queries: Queries(), Concurrency: workers}
		cards, err := r.EvaluateAll(allSystems()...)
		if err != nil {
			t.Fatalf("concurrency %d: %v", workers, err)
		}
		if got := renderCards(cards); got != want {
			t.Errorf("concurrency %d: ranked scorecards differ from sequential path\nsequential:\n%s\nparallel:\n%s", workers, want, got)
		}
	}
}

// TestObserverMatrix pins the observers' invisibility together: every
// subset of {telemetry, ExplainFailures, journal, faults} at pools 1, 2
// and 8 renders testdata/paper12.render byte for byte and scores the
// digest in testdata/paper12.digest. The faults observer wraps each system
// in a zero-fault faultline plan. Under the default resilience policy
// every subset renders the same scorecards and scores
// testdata/paper12-resilience.digest (its attempt histories are part of
// the digest). A journaled run's replay must reproduce the digest too.
func TestObserverMatrix(t *testing.T) {
	want := readGolden(t, "testdata/paper12.render")
	for _, resilient := range []bool{false, true} {
		golden := "testdata/paper12.digest"
		if resilient {
			golden = "testdata/paper12-resilience.digest"
		}
		digest := strings.TrimSpace(readGolden(t, golden))
		for mask := 0; mask < 16; mask++ {
			tel, exp, jr, faults := mask&1 != 0, mask&2 != 0, mask&4 != 0, mask&8 != 0
			for _, pool := range []int{1, 2, 8} {
				var buf bytes.Buffer
				r := &Runner{Queries: Queries(), Concurrency: pool, ExplainFailures: exp}
				name := "plain"
				if resilient {
					r.Resilience = DefaultResilience(7)
					name = "resilience"
				}
				if tel {
					r.Telemetry = telemetry.NewRegistry()
					name += "+telemetry"
				}
				if exp {
					name += "+explain"
				}
				if jr {
					r.Journal = &journal.Recorder{W: journal.NewWriter(&buf), RunID: "matrix"}
					name += "+journal"
				}
				systems := allSystems()
				if faults {
					plan := &faultline.Plan{Seed: 7} // no rules: injects nothing
					for i, sys := range systems {
						systems[i] = faultline.Wrap(sys, plan, r.Telemetry)
					}
					name += "+faults"
				}
				t.Run(fmt.Sprintf("%s/pool%d", name, pool), func(t *testing.T) {
					cards, err := r.EvaluateAll(systems...)
					if err != nil {
						t.Fatal(err)
					}
					if got := renderCards(cards); got != want {
						t.Errorf("rendered scorecards differ from testdata/paper12.render")
					}
					if got := ScorecardDigest(cards); got != digest {
						t.Errorf("scorecard digest %s, want %s", got, digest)
					}
					if !jr {
						return
					}
					events, err := journal.ReadAll(&buf)
					if err != nil {
						t.Fatal(err)
					}
					if p := journal.Replay(events); p.Verify() != nil || p.End.Digest != digest {
						t.Errorf("journal does not replay to %s: %v", digest, p.Verify())
					}
				})
			}
		}
	}
}

// readGolden reads a committed golden file.
func readGolden(t *testing.T, path string) string {
	t.Helper()
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(golden)
}

// TestTruthComputedOncePerQuery proves the sharing the engine promises:
// across a 4-system run, each query's ground truth is computed exactly
// once, whatever the pool size.
func TestTruthComputedOncePerQuery(t *testing.T) {
	for _, pool := range []int{1, 2, 8} {
		var mu sync.Mutex
		calls := map[int]int{}
		var queries []*Query
		for _, q := range Queries() {
			queries = append(queries, NewQuery(q.ID, q.Case, q.Name, q.XQuery, q.Reference, q.ChallengeSource, q.Fields,
				func() ([]integration.Row, error) {
					mu.Lock()
					calls[q.ID]++
					mu.Unlock()
					return q.Expected()
				}))
		}
		r := &Runner{Queries: queries, Concurrency: pool}
		if _, err := r.EvaluateAll(allSystems()...); err != nil {
			t.Fatalf("pool %d: %v", pool, err)
		}
		for _, q := range queries {
			if calls[q.ID] != 1 {
				t.Errorf("pool %d: q%d truth computed %d times, want once", pool, q.ID, calls[q.ID])
			}
		}
	}
}

// TestTruthReleasedAfterLastCell pins the streaming contract: a query's
// truth rows become garbage once its last cell is scored, so a run holds
// the truth of only the queries in flight. At pool 1 cells run in claim
// order, query-major, so when the first cell of query q answers, every
// cell of query q-1 is scored and its rows must be collectable.
func TestTruthReleasedAfterLastCell(t *testing.T) {
	const nq = 6
	var freed [nq + 1]atomic.Bool // by query ID: the truth rows were collected
	var queries []*Query
	for id := 1; id <= nq; id++ {
		queries = append(queries, NewQuery(id, hetero.Synonyms, "synthetic", "", "", "", nil,
			func() ([]integration.Row, error) {
				rows := []integration.Row{{"course": strconv.Itoa(id)}}
				runtime.SetFinalizer(&rows[0], func(*integration.Row) { freed[id].Store(true) })
				return rows, nil
			}))
	}
	// collected reports whether query id's rows were collected, running
	// the collector until their finalizer has run or a second has passed.
	collected := func(id int) bool {
		for deadline := time.Now().Add(time.Second); !freed[id].Load(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return false
			}
			runtime.GC()
		}
		return true
	}
	var leaked []int
	systems := make([]integration.System, 3)
	for i := range systems {
		systems[i] = &fakeSystem{name: fmt.Sprintf("sys%d", i), fn: func(req integration.Request) (*integration.Answer, error) {
			if i == 0 && req.QueryID > 1 && !collected(req.QueryID-1) {
				leaked = append(leaked, req.QueryID-1)
			}
			return &integration.Answer{Rows: []integration.Row{{"course": strconv.Itoa(req.QueryID)}}}, nil
		}}
	}
	r := &Runner{Queries: queries, Concurrency: 1}
	cards, err := r.EvaluateAll(systems...)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaked) > 0 {
		t.Errorf("the truth of queries %v outlived their last scored cell", leaked)
	}
	for _, c := range cards {
		if c.CorrectCount() != nq {
			t.Errorf("%s scored %d/%d", c.System, c.CorrectCount(), nq)
		}
	}
}

// TestTurnsQueryMajor pins how a resilient run hands out cells: never two
// cells of one system at once, each system's cells in query order, and
// otherwise query-major, so a free worker takes the least advanced idle
// system rather than its own system's next cell.
func TestTurnsQueryMajor(t *testing.T) {
	order := &turns{next: make([]int, 3), held: make([]bool, 3)}
	type cell struct{ qi, si int }
	none := cell{-1, -1}
	// Three systems, three queries, two workers; worker 2's first cell
	// outlasts five of worker 1's.
	for i, step := range []struct {
		last int
		want cell
	}{
		{-1, cell{0, 0}}, // worker 1
		{-1, cell{0, 1}}, // worker 2
		{0, cell{0, 2}},  // worker 1: system 2's q0 comes before system 0's q1
		{2, cell{1, 0}},  // ties go to the lowest system
		{0, cell{1, 2}},
		{2, cell{2, 0}}, // system 1's q1 is lower, but its q0 still runs
		{0, cell{2, 2}},
		{2, none},       // only system 1 has cells left, and it is held
		{1, cell{1, 1}}, // worker 2
		{1, cell{2, 1}},
		{1, none},
	} {
		got := none
		if qi, si, ok := order.claim(step.last, 3); ok {
			got = cell{qi, si}
		}
		if got != step.want {
			t.Fatalf("claim %d (releasing %d) = %v, want %v", i, step.last, got, step.want)
		}
	}
}

// TestResilientCancelDrains cancels a run mid-way under the default
// resilience policy at pool 8: the workers, one per system, must stop
// claiming cells, the run must return ctx.Err(), and every goroutine the
// run started must exit.
func TestResilientCancelDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	systems := make([]integration.System, 3)
	for i := range systems {
		systems[i] = &fakeSystem{name: fmt.Sprintf("sys%d", i), fn: func(req integration.Request) (*integration.Answer, error) {
			if calls.Add(1) == 20 {
				cancel()
			}
			time.Sleep(100 * time.Microsecond)
			if (req.QueryID+i)%3 == 0 {
				return nil, &transientErr{"flaky"}
			}
			return &integration.Answer{}, nil
		}}
	}
	r := &Runner{Queries: Queries(), Concurrency: 8, Resilience: DefaultResilience(7)}
	done := make(chan error, 1)
	go func() {
		_, err := r.EvaluateAllContext(ctx, systems...)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a cancelled resilient run did not return")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Shared System values must survive many concurrent Evaluate calls — the
// concurrency contract of integration.System, enforced under -race.
func TestConcurrentEvaluateStress(t *testing.T) {
	systems := allSystems()
	// Expected correct counts per system name, from Section 4.2.
	wantCorrect := map[string]int{
		"Cohera": 9, "IWIZ": 9, "UF Full Mediator": 12, "Declarative Mediator": 12,
	}
	const callers = 8
	runner := NewRunner()
	var wg sync.WaitGroup
	errs := make(chan error, callers*len(systems))
	for i := 0; i < callers; i++ {
		for _, sys := range systems {
			wg.Add(1)
			go func(sys integration.System) {
				defer wg.Done()
				card, err := runner.Evaluate(sys)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", sys.Name(), err)
					return
				}
				if got := card.CorrectCount(); got != wantCorrect[card.System] {
					errs <- fmt.Errorf("%s scored %d/12, want %d", card.System, got, wantCorrect[card.System])
				}
			}(sys)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// Per-query results land in query order no matter which cell finishes
// first, and repeated concurrent runs render identically.
func TestDeterministicOrdering(t *testing.T) {
	jitter := &fakeSystem{name: "jitter", fn: func(req integration.Request) (*integration.Answer, error) {
		// Later queries finish first: completion order is the reverse of
		// submission order, so any ordering-by-completion bug shows up.
		time.Sleep(time.Duration(13-req.QueryID) * time.Millisecond)
		if req.QueryID%3 == 0 {
			return nil, integration.ErrUnsupported
		}
		q, err := QueryByID(req.QueryID)
		if err != nil {
			return nil, err
		}
		rows, err := q.Expected()
		if err != nil {
			return nil, err
		}
		return &integration.Answer{Rows: rows}, nil
	}}
	r := &Runner{Queries: Queries(), Concurrency: 12}
	var first string
	for run := 0; run < 3; run++ {
		card, err := r.Evaluate(jitter)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range card.Results {
			if res.QueryID != i+1 {
				t.Fatalf("run %d: result %d holds query %d", run, i, res.QueryID)
			}
		}
		out := card.Format()
		if first == "" {
			first = out
		} else if out != first {
			t.Errorf("run %d rendered differently:\n%s\nvs\n%s", run, out, first)
		}
	}
}

// A stuck system degrades to a per-query timeout error; the run completes.
func TestQueryTimeout(t *testing.T) {
	slow := &fakeSystem{name: "slow", fn: func(req integration.Request) (*integration.Answer, error) {
		if req.QueryID == 2 {
			time.Sleep(2 * time.Second)
		}
		return &integration.Answer{}, nil
	}}
	r := &Runner{Queries: Queries()[:3], Concurrency: 3, QueryTimeout: 50 * time.Millisecond}
	start := time.Now()
	card, err := r.Evaluate(slow)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("timeout did not bound the run: took %v", elapsed)
	}
	res := card.Result(2)
	if res == nil || !strings.Contains(res.Err, ErrQueryTimeout.Error()) {
		t.Errorf("query 2 result = %+v, want timeout error", res)
	}
	for _, id := range []int{1, 3} {
		if r := card.Result(id); r.Err != "" {
			t.Errorf("query %d should be unaffected, got err %q", id, r.Err)
		}
	}
}

// Cancelling the context abandons the evaluation with ctx.Err().
func TestCancellation(t *testing.T) {
	block := make(chan struct{})
	stuck := &fakeSystem{name: "stuck", fn: func(req integration.Request) (*integration.Answer, error) {
		<-block
		return &integration.Answer{}, nil
	}}
	defer close(block)
	ctx, cancel := context.WithCancel(context.Background())
	r := &Runner{Queries: Queries(), Concurrency: 2}
	done := make(chan error, 1)
	go func() {
		_, err := r.EvaluateAllContext(ctx, stuck)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unblock the evaluation")
	}
}

// A query whose expected answer cannot be computed degrades to a per-query
// error result instead of sinking the whole evaluation.
func TestBrokenExpectedAnswerDegrades(t *testing.T) {
	good, err := QueryByID(1)
	if err != nil {
		t.Fatal(err)
	}
	broken := &Query{
		ID:    99,
		Name:  "broken",
		truth: func() ([]integration.Row, error) { return nil, errors.New("ground truth unavailable") },
	}
	echo := &fakeSystem{name: "echo", fn: func(req integration.Request) (*integration.Answer, error) {
		rows, err := good.Expected()
		if err != nil {
			return nil, err
		}
		return &integration.Answer{Rows: rows}, nil
	}}
	r := &Runner{Queries: []*Query{good, broken}, Concurrency: 1}
	card, err := r.Evaluate(echo)
	if err != nil {
		t.Fatalf("evaluation aborted: %v", err)
	}
	if res := card.Result(1); !res.Correct {
		t.Errorf("healthy query should still score: %+v", res)
	}
	res := card.Result(99)
	if res == nil || !strings.Contains(res.Err, "expected answer") || res.Correct || res.Supported {
		t.Errorf("broken query result = %+v, want per-query expected-answer error", res)
	}
}
