package benchmark

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"thalia/internal/integration"
	"thalia/internal/telemetry"
)

// transientErr is a source-declared retryable failure.
type transientErr struct{ msg string }

func (e *transientErr) Error() string   { return e.msg }
func (e *transientErr) Transient() bool { return true }

// TestBackoffScheduleDeterministic pins the backoff/jitter schedule for a
// fixed seed: exponential doubling from 1ms capped at 8ms,
// each delay jittered into [50%, 100%) of nominal, and the exact sequence
// reproducible byte for byte (values pinned from the splitmix-style hash).
func TestBackoffScheduleDeterministic(t *testing.T) {
	p := DefaultResilience(1)
	want := []time.Duration{827197, 1709009, 2211084, 4416793, 6811909}
	nominal := []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 8 * time.Millisecond, // capped
	}
	for i, w := range want {
		n := i + 1
		got := p.Backoff("Cohera", 3, n)
		if got != w {
			t.Errorf("Backoff(Cohera, q3, attempt %d) = %v, want %v", n, got, w)
		}
		if got < nominal[i]/2 || got >= nominal[i] {
			t.Errorf("attempt %d: %v outside jitter window [%v, %v)", n, got, nominal[i]/2, nominal[i])
		}
		if again := p.Backoff("Cohera", 3, n); again != got {
			t.Errorf("attempt %d: backoff changed across calls", n)
		}
	}
	// Different coordinates and different seeds give different jitter.
	if got := p.Backoff("IWIZ", 3, 1); got != 675581 {
		t.Errorf("Backoff(IWIZ, q3, 1) = %v, want 675.581µs", got)
	}
	if got := p.Backoff("Cohera", 7, 1); got != 744199 {
		t.Errorf("Backoff(Cohera, q7, 1) = %v, want 744.199µs", got)
	}
	if got := DefaultResilience(2).Backoff("Cohera", 3, 1); got != 641621 {
		t.Errorf("seed 2 Backoff(Cohera, q3, 1) = %v, want 641.621µs", got)
	}
}

// resilientRunner builds a single-query runner under policy p.
func resilientRunner(p *Resilience) *Runner {
	return &Runner{Queries: Queries()[:1], Concurrency: 1, Resilience: p}
}

// answerQ1 returns query 1's expected rows as a correct answer.
func answerQ1() (*integration.Answer, error) {
	q, err := QueryByID(1)
	if err != nil {
		return nil, err
	}
	rows, err := q.Expected()
	if err != nil {
		return nil, err
	}
	return &integration.Answer{Rows: rows}, nil
}

func TestRetryTransientThenSucceed(t *testing.T) {
	reg := telemetry.NewRegistry()
	sys := &fakeSystem{name: "flaky", fn: func(req integration.Request) (*integration.Answer, error) {
		if integration.AttemptFromContext(req.Context()) == 1 {
			return nil, &transientErr{"source hiccup"}
		}
		return answerQ1()
	}}
	r := resilientRunner(DefaultResilience(1))
	r.Telemetry = reg
	card, err := r.Evaluate(sys)
	if err != nil {
		t.Fatal(err)
	}
	res := card.Results[0]
	if !res.Correct || res.Degraded {
		t.Fatalf("flaky cell = correct %v degraded %v, want recovered", res.Correct, res.Degraded)
	}
	if len(res.Attempts) != 2 {
		t.Fatalf("attempt history %v, want fail-then-ok", res.Attempts)
	}
	a1, a2 := res.Attempts[0], res.Attempts[1]
	if a1.Err == "" || !a1.Transient || a1.Backoff <= 0 {
		t.Errorf("attempt 1 = %+v, want transient failure with scheduled backoff", a1)
	}
	if a2.Err != "" || a2.N != 2 {
		t.Errorf("attempt 2 = %+v, want success", a2)
	}
	retries := int64(0)
	for _, c := range reg.Snapshot().Counters {
		if c.Name == MetricRetries {
			retries += c.Value
		}
	}
	if retries != 1 {
		t.Errorf("engine_retries_total = %d, want 1", retries)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	calls := 0
	sys := &fakeSystem{name: "dead", fn: func(req integration.Request) (*integration.Answer, error) {
		calls++
		return nil, errors.New("disk on fire")
	}}
	r := resilientRunner(&Resilience{MaxAttempts: 3})
	card, err := r.Evaluate(sys)
	if err != nil {
		t.Fatal(err)
	}
	res := card.Results[0]
	if calls != 1 {
		t.Fatalf("permanent error retried: %d calls", calls)
	}
	if !res.Degraded || len(res.Attempts) != 1 || res.Attempts[0].Transient {
		t.Fatalf("res = %+v, want one non-transient degraded attempt", res)
	}
	if res.Err == "" {
		t.Fatal("degraded cell lost its error")
	}
}

func TestDeclineNotRetriedNotDegraded(t *testing.T) {
	calls := 0
	sys := &fakeSystem{name: "narrow", fn: func(req integration.Request) (*integration.Answer, error) {
		calls++
		return nil, integration.ErrUnsupported
	}}
	r := resilientRunner(DefaultResilience(1))
	card, err := r.Evaluate(sys)
	if err != nil {
		t.Fatal(err)
	}
	res := card.Results[0]
	if calls != 1 {
		t.Fatalf("decline retried: %d calls", calls)
	}
	if res.Degraded || res.Supported {
		t.Fatalf("res = %+v, want a plain decline", res)
	}
	if len(res.Attempts) != 1 {
		t.Fatalf("attempts = %v, want exactly one", res.Attempts)
	}
}

// Exhausting retries degrades the cell but never aborts the run: the other
// cells still score.
func TestExhaustedRetriesDegradeCellOnly(t *testing.T) {
	sys := &fakeSystem{name: "mixed", fn: func(req integration.Request) (*integration.Answer, error) {
		if req.QueryID == 1 {
			return nil, &transientErr{"always down"}
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
	reg := telemetry.NewRegistry()
	r := &Runner{Queries: Queries(), Concurrency: 2, Telemetry: reg,
		Resilience: DefaultResilience(1)}
	card, err := r.Evaluate(sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(card.Results) != 12 {
		t.Fatalf("run lost cells: %d results", len(card.Results))
	}
	res := card.Results[0]
	if !res.Degraded || len(res.Attempts) != 3 {
		t.Fatalf("q1 = degraded %v attempts %d, want degraded after 3", res.Degraded, len(res.Attempts))
	}
	for _, other := range card.Results[1:] {
		if other.Degraded || !other.Correct {
			t.Fatalf("q%d perturbed by q1's degradation: %+v", other.QueryID, other)
		}
		if len(other.Attempts) != 1 {
			t.Fatalf("q%d attempts = %v, want one clean attempt", other.QueryID, other.Attempts)
		}
	}
	degraded := int64(0)
	for _, c := range reg.Snapshot().Counters {
		if c.Name == MetricDegraded {
			degraded += c.Value
		}
	}
	if degraded != 1 {
		t.Errorf("engine_degraded_total = %d, want 1", degraded)
	}
}

// Under a resilience policy QueryTimeout bounds each attempt, and its
// expiry is retryable.
func TestQueryTimeoutBoundsEachAttempt(t *testing.T) {
	sys := &fakeSystem{name: "slow", fn: func(req integration.Request) (*integration.Answer, error) {
		time.Sleep(time.Second)
		return answerQ1()
	}}
	r := resilientRunner(&Resilience{MaxAttempts: 2})
	r.QueryTimeout = 10 * time.Millisecond
	start := time.Now()
	card, err := r.Evaluate(sys)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("QueryTimeout did not bound the attempts")
	}
	res := card.Results[0]
	if !res.Degraded || len(res.Attempts) != 2 {
		t.Fatalf("res = %+v, want 2 timed-out attempts then degradation", res)
	}
	for _, a := range res.Attempts {
		if !strings.Contains(a.Err, ErrQueryTimeout.Error()) || !a.Transient {
			t.Fatalf("attempt %+v, want retryable timeout", a)
		}
	}
}

// The per-system breaker opens after five consecutive failures and sheds
// later attempts, probing after every three shed; shed attempts are
// recorded and counted.
func TestBreakerShedsAfterConsecutiveFailures(t *testing.T) {
	calls := 0
	sys := &fakeSystem{name: "downhard", fn: func(req integration.Request) (*integration.Answer, error) {
		calls++
		return nil, &transientErr{"down hard"}
	}}
	reg := telemetry.NewRegistry()
	r := &Runner{Queries: Queries(), Concurrency: 4, Telemetry: reg,
		Resilience: &Resilience{MaxAttempts: 2}}
	card, err := r.Evaluate(sys)
	if err != nil {
		t.Fatal(err)
	}
	// Attempts: q1 and q2 fail twice, q3 fails once (streak 5 → open).
	// From then on the breaker sheds three attempts and lets one probe
	// through, which fails and re-opens it: probes on q5, q7, q9 and q11.
	if calls != 9 {
		t.Fatalf("system called %d times, want 9 (5 failures, then 4 failed probes)", calls)
	}
	shedCells := 0
	for _, res := range card.Results {
		if !res.Degraded {
			t.Fatalf("q%d not degraded under a hard-down system", res.QueryID)
		}
		for _, a := range res.Attempts {
			if a.Shed {
				shedCells++
				if !strings.Contains(a.Err, ErrBreakerOpen.Error()) {
					t.Fatalf("shed attempt error = %q", a.Err)
				}
			}
		}
	}
	if shedCells == 0 {
		t.Fatal("no shed attempts recorded")
	}
	snap := reg.Snapshot()
	shed := int64(0)
	var stateSeen, opensSeen bool
	for _, c := range snap.Counters {
		if c.Name == MetricShed {
			shed += c.Value
		}
	}
	for _, g := range snap.Gauges {
		switch g.Name {
		case MetricBreakerState:
			stateSeen = true
		case MetricBreakerOpens:
			opensSeen = true
			if g.Value < 1 {
				t.Errorf("engine_breaker_opens = %d, want ≥ 1", g.Value)
			}
		}
	}
	if shed == 0 || !stateSeen || !opensSeen {
		t.Fatalf("breaker telemetry missing: shed %d, state gauge %v, opens gauge %v", shed, stateSeen, opensSeen)
	}
}

// After the cooldown, the half-open probe reaches the system again and a
// success closes the breaker for the remaining cells.
func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	calls := 0
	sys := &fakeSystem{name: "recovering", fn: func(req integration.Request) (*integration.Answer, error) {
		calls++
		if calls <= 5 {
			return nil, &transientErr{"cold start"}
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
	r := &Runner{Queries: Queries(), Concurrency: 1, Resilience: &Resilience{MaxAttempts: 2}}
	card, err := r.Evaluate(sys)
	if err != nil {
		t.Fatal(err)
	}
	// q1 and q2 fail twice and q3 once: five failures open the breaker.
	// q3's second attempt and both of q4's are shed, so q1-q4 degrade.
	// q5's first attempt is the probe; the system has recovered, the
	// probe closes the breaker, and q5-q12 score.
	for _, res := range card.Results {
		if want := res.QueryID >= 5; res.Correct != want || res.Degraded == want {
			t.Errorf("q%d: correct %v degraded %v, want correct %v", res.QueryID, res.Correct, res.Degraded, want)
		}
	}
	if calls != 13 {
		t.Errorf("system called %d times, want 13 (5 failures, the probe, 7 clean cells)", calls)
	}
}

// FormatChaos renders only deterministic fields and flags degraded cells.
func TestFormatChaos(t *testing.T) {
	cards := []*Scorecard{{
		System: "Fake",
		Results: []QueryResult{
			{QueryID: 1, Supported: true, Correct: true,
				Attempts: []Attempt{{N: 1, Err: "hiccup", Transient: true, Backoff: 1500 * time.Microsecond}, {N: 2}}},
			{QueryID: 2, Degraded: true, Supported: true, Err: "gone",
				Attempts: []Attempt{{N: 1, Err: "gone"}}},
			{QueryID: 3,
				Attempts: []Attempt{{N: 1, Err: ErrBreakerOpen.Error(), Transient: true, Shed: true}}},
		},
	}}
	got := FormatChaos(cards)
	for _, want := range []string{
		"Fake (1 degraded)",
		"q01: ok        2 attempt(s)",
		"attempt 1: transient error: hiccup  (retry in 1.5ms)",
		"attempt 2: ok",
		"q02: DEGRADED  1 attempt(s)",
		"attempt 1: permanent error: gone",
		"attempt 1: shed (breaker open)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("FormatChaos missing %q in:\n%s", want, got)
		}
	}
	if FormatChaos(cards) != got {
		t.Error("FormatChaos not deterministic")
	}
}

// Runner.Explain works under a resilience policy too: the trace carries
// attempt spans.
func TestExplainWithResilience(t *testing.T) {
	sys := &fakeSystem{name: "flaky", fn: func(req integration.Request) (*integration.Answer, error) {
		if integration.AttemptFromContext(req.Context()) == 1 {
			return nil, &transientErr{"hiccup"}
		}
		return answerQ1()
	}}
	r := &Runner{Queries: Queries(), Resilience: &Resilience{MaxAttempts: 2}}
	res, tr, err := r.Explain(context.Background(), sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Attempts) != 2 {
		t.Fatalf("res = %+v, want recovery on attempt 2", res)
	}
	if tr.Empty() {
		t.Fatal("no trace recorded")
	}
	outline := tr.Outline()
	if !strings.Contains(outline, "attempt 1") || !strings.Contains(outline, "attempt 2") {
		t.Fatalf("trace missing attempt spans:\n%s", outline)
	}
}
