package benchmark

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"thalia/internal/explain"
	"thalia/internal/faultline"
	"thalia/internal/integration"
	"thalia/internal/journal"
	"thalia/internal/telemetry"
)

// ErrBreakerOpen is recorded for an attempt the per-system circuit breaker
// shed without calling the system.
var ErrBreakerOpen = errors.New("benchmark: circuit breaker open; attempt shed")

// Resilience metric names.
const (
	// MetricRetries counts retry attempts (attempt 2 and up), per system.
	MetricRetries = "engine_retries_total"
	// MetricDegraded counts cells that exhausted their retries, per system.
	MetricDegraded = "engine_degraded_total"
	// MetricShed counts attempts shed by an open breaker, per system.
	MetricShed = "engine_shed_total"
	// MetricBreakerState gauges each system's breaker position after its
	// latest cell (0 closed, 1 open, 2 half-open); MetricBreakerOpens
	// gauges how many times the breaker tripped during the run.
	MetricBreakerState = "engine_breaker_state"
	MetricBreakerOpens = "engine_breaker_opens"
)

// The fixed parts of the resilience policy. Backoff starts at backoffStart
// before attempt 2 and doubles per retry, capped at backoffCap. A system's
// circuit breaker opens after breakerTrip consecutive failures and sheds
// breakerShed calls before half-opening a probe — counted in calls, not
// seconds, so breaker trajectories are deterministic (see
// faultline.Breaker).
const (
	backoffStart = time.Millisecond
	backoffCap   = 8 * time.Millisecond
	breakerTrip  = 5
	breakerShed  = 3
)

// Resilience is the runner's retry/degradation policy: bounded retries
// with exponential backoff and deterministic jitter, each attempt bounded
// by the runner's QueryTimeout, and a per-system circuit breaker. A cell
// that exhausts its attempts is marked degraded with its attempt history
// attached — it never aborts the run.
type Resilience struct {
	// MaxAttempts bounds the tries per cell; values below 1 mean 1.
	MaxAttempts int
	// JitterSeed scales every backoff into [50%, 100%) of its nominal
	// value, deterministically per (system, query, attempt).
	JitterSeed int64
}

// DefaultResilience is the benchmark's standard policy: three attempts
// with backoff jittered by seed.
func DefaultResilience(seed int64) *Resilience {
	return &Resilience{MaxAttempts: 3, JitterSeed: seed}
}

// newBreaker returns a closed circuit breaker for one system's run.
func newBreaker() *faultline.Breaker {
	return faultline.NewBreaker(breakerTrip, breakerShed)
}

// attempts returns the effective attempt bound.
func (p *Resilience) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the delay scheduled after a failed attempt n (1-based):
// backoffStart doubled per retry already taken, capped at backoffCap, then
// jittered into [50%, 100%) of nominal. Same coordinates, same seed, same
// delay — the chaos conformance suite depends on it.
func (p *Resilience) Backoff(system string, query, attempt int) time.Duration {
	d := backoffStart
	for i := 1; i < attempt && d < backoffCap; i++ {
		d *= 2
	}
	d = min(d, backoffCap)
	frac := 0.5 + 0.5*faultline.Jitter(p.JitterSeed, system, query, attempt)
	return time.Duration(float64(d) * frac)
}

// retryable classifies an attempt failure: retry only what the source
// marks transient, plus the engine's own deadline expiries.
func retryable(err error) bool {
	return integration.Transient(err) ||
		errors.Is(err, ErrQueryTimeout) ||
		errors.Is(err, context.DeadlineExceeded)
}

// answerResilient runs the runner's retry loop around one cell: breaker
// check, attempt-stamped Answer call under QueryTimeout, classification,
// deterministic backoff. It returns the final answer or error plus the
// full attempt history. The caller decides degradation.
func (r *Runner) answerResilient(ctx context.Context, sys integration.System, req integration.Request, rec *explain.Recorder, br *faultline.Breaker) (*integration.Answer, []journal.Attempt, error) {
	p := r.Resilience
	system := sys.Name()
	max := p.attempts()
	attempts := make([]journal.Attempt, 0, max)
	var lastErr error
	for n := 1; n <= max; n++ {
		if n > 1 && r.Telemetry != nil {
			r.Telemetry.Counter(MetricRetries, telemetry.L("system", system)).Inc()
		}
		if !br.Allow() {
			if r.Telemetry != nil {
				r.Telemetry.Counter(MetricShed, telemetry.L("system", system)).Inc()
			}
			a := journal.Attempt{N: n, Err: ErrBreakerOpen.Error(), Transient: true, Shed: true}
			if n < max {
				a.BackoffNS = p.Backoff(system, req.QueryID, n).Nanoseconds()
			}
			if rec != nil {
				rec.Event(explain.KindAttempt, fmt.Sprintf("attempt %d", n),
					explain.A("outcome", "shed"), explain.A("breaker", br.State().String()))
			}
			attempts = append(attempts, a)
			lastErr = ErrBreakerOpen
			if n < max && !sleep(ctx, time.Duration(a.BackoffNS)) {
				return nil, attempts, ctx.Err()
			}
			continue
		}
		attemptReq := req.WithContext(integration.WithAttempt(req.Context(), n))
		var span *explain.Span
		if rec != nil {
			span = rec.Begin(explain.KindAttempt, fmt.Sprintf("attempt %d", n))
		}
		ans, err := r.answer(ctx, sys, attemptReq)
		if err == nil {
			span.With("outcome", "ok")
			span.End()
			br.Record(true)
			attempts = append(attempts, journal.Attempt{N: n})
			return ans, attempts, nil
		}
		if errors.Is(err, integration.ErrUnsupported) {
			// A decline is a working system saying no: breaker success,
			// never retried.
			span.With("outcome", "declined")
			span.End()
			br.Record(true)
			attempts = append(attempts, journal.Attempt{N: n, Err: err.Error()})
			return nil, attempts, err
		}
		if ctx.Err() != nil {
			span.With("outcome", "canceled")
			span.End()
			attempts = append(attempts, journal.Attempt{N: n, Err: ctx.Err().Error()})
			return nil, attempts, ctx.Err()
		}
		br.Record(false)
		retry := retryable(err) && n < max
		a := journal.Attempt{N: n, Err: err.Error(), Transient: retryable(err)}
		if retry {
			a.BackoffNS = p.Backoff(system, req.QueryID, n).Nanoseconds()
		}
		span.With("outcome", "error").With("error", err.Error())
		span.End()
		attempts = append(attempts, a)
		lastErr = err
		if !retry {
			break
		}
		if !sleep(ctx, time.Duration(a.BackoffNS)) {
			return nil, attempts, ctx.Err()
		}
	}
	return nil, attempts, lastErr
}

// sleep pauses for d unless ctx is cancelled first; it reports whether the
// full pause elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// FormatChaos renders the per-cell attempt histories of a ranked run — the
// chaos companion to Comparison/Format. It prints only deterministic
// fields, so same-seed runs render byte-identical reports.
func FormatChaos(cards []*Scorecard) string {
	var b strings.Builder
	b.WriteString("Chaos resilience — per-cell attempt histories\n")
	for _, c := range JournalCards(cards) {
		degraded := 0
		for _, cell := range c.Cells {
			if cell.Degraded {
				degraded++
			}
		}
		fmt.Fprintf(&b, "\n%s (%d degraded)\n", c.System, degraded)
		for _, cell := range c.Cells {
			status := "ok"
			switch {
			case cell.Degraded:
				status = "DEGRADED"
			case !cell.Supported && cell.Err == "":
				status = "declined"
			case !cell.Correct && cell.Supported:
				status = "incorrect"
			}
			fmt.Fprintf(&b, "  q%02d: %-9s %d attempt(s)\n", cell.Query, status, len(cell.Attempts))
			for _, a := range cell.Attempts {
				fmt.Fprintf(&b, "    attempt %d: %s\n", a.N, a.Outcome())
			}
		}
	}
	return b.String()
}
