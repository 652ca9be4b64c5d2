package benchmark

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"thalia/internal/cohera"
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
// against each. A run takes about 14500 with the mapping kernels as byte
// scanners, the lexicons built once and each row keyed in one buffer; it
// took about 20400 when the kernels were regular expressions, every system
// built its own lexicon and Row.Key joined a slice of pairs.
const paper12AllocBudget = 15500

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
// subset of {telemetry, ExplainFailures, journal} at pools 1, 2 and 8
// renders the plain sequential run's scorecards byte for byte and scores
// the digest in testdata/paper12.digest. The default resilience policy
// with no faults, with telemetry and the journal on and off, renders the
// same scorecards and scores testdata/paper12-resilience.digest (its
// attempt histories are part of the digest). A journaled run's replay
// must reproduce the digest too.
func TestObserverMatrix(t *testing.T) {
	plain, err := NewSequentialRunner().EvaluateAll(allSystems()...)
	if err != nil {
		t.Fatal(err)
	}
	want := renderCards(plain)
	for _, resilient := range []bool{false, true} {
		golden := "testdata/paper12.digest"
		if resilient {
			golden = "testdata/paper12-resilience.digest"
		}
		digest := readDigest(t, golden)
		for mask := 0; mask < 8; mask++ {
			tel, exp, jr := mask&1 != 0, mask&2 != 0, mask&4 != 0
			if resilient && exp {
				continue
			}
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
				t.Run(fmt.Sprintf("%s/pool%d", name, pool), func(t *testing.T) {
					cards, err := r.EvaluateAll(allSystems()...)
					if err != nil {
						t.Fatal(err)
					}
					if got := renderCards(cards); got != want {
						t.Errorf("rendered scorecards differ from the plain sequential run")
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

// readDigest reads a committed scorecard digest.
func readDigest(t *testing.T, path string) string {
	t.Helper()
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(golden))
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
