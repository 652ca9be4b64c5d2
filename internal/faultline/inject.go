package faultline

import (
	"fmt"
	"io"
	"sync"
	"time"

	"thalia/internal/explain"
	"thalia/internal/integration"
	"thalia/internal/telemetry"
	"thalia/internal/xmldom"
)

// MetricInjected counts faults actually injected, labeled by kind and
// system.
const MetricInjected = "faults_injected_total"

// InjectedError is the error a fault decorator returns for transient,
// permanent and malformed-payload faults. It carries the coordinates the
// plan fired on, so attempt histories and explain traces can name the
// fault that killed each attempt.
type InjectedError struct {
	Kind    Kind
	System  string
	Query   int
	Attempt int
}

// Error renders the fault with its coordinates.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultline: injected %s fault (system %s, query %d, attempt %d)", e.Kind, e.System, e.Query, e.Attempt)
}

// Transient reports whether a retry may succeed: everything but a
// permanent fault is retryable (a truncated or dripped payload models a
// flaky connection, not a dead source).
func (e *InjectedError) Transient() bool { return e.Kind != KindPermanent }

// effects is one attempt's resolved fault set: the sum of all fired delay
// rules plus the first fired failure/corruption rule.
type effects struct {
	delay    time.Duration
	fail     *InjectedError
	truncate *Rule
	drip     *Rule
}

// resolve turns the rules fired for one coordinate into concrete effects.
// This switch is the package's single injection dispatch — the thalia-vet
// faultkinds analyzer checks every declared Kind appears here as a case
// label.
func resolve(rules []Rule, system string, query, attempt int) effects {
	var eff effects
	for i := range rules {
		r := &rules[i]
		switch r.Kind {
		case KindLatency:
			eff.delay += time.Duration(r.LatencyMS) * time.Millisecond
		case KindTransient, KindPermanent:
			if eff.fail == nil {
				eff.fail = &InjectedError{Kind: r.Kind, System: system, Query: query, Attempt: attempt}
			}
		case KindTruncate:
			if eff.truncate == nil {
				eff.truncate = r
			}
		case KindDrip:
			if eff.drip == nil {
				eff.drip = r
			}
		}
	}
	return eff
}

// injector is the fault decorator around an integration.System. It holds
// no mutable per-cell state beyond a fallback attempt counter: the
// benchmark's resilience loop stamps the attempt number into the request
// context, so concurrent runs over the same wrapped system inject
// identical faults.
type injector struct {
	inner integration.System
	plan  *Plan
	reg   *telemetry.Registry

	// mu guards fallback, the per-query attempt counter used only when a
	// caller did not stamp an attempt via integration.WithAttempt.
	mu       sync.Mutex
	fallback map[int]int
}

// Wrap decorates sys with the plan's faults. The System interface is
// unchanged — the same decorator idiom as the explain recorder — and
// Name/Description delegate verbatim so scorecards and breaker keys are
// unaffected. A nil or zero plan wraps to a byte-identical passthrough.
// reg may be nil (no metrics).
func Wrap(sys integration.System, plan *Plan, reg *telemetry.Registry) integration.System {
	return &injector{inner: sys, plan: plan, reg: reg, fallback: map[int]int{}}
}

// Name delegates to the wrapped system.
func (in *injector) Name() string { return in.inner.Name() }

// Description delegates to the wrapped system.
func (in *injector) Description() string { return in.inner.Description() }

// Answer injects the plan's faults around the wrapped system's answer.
func (in *injector) Answer(req integration.Request) (*integration.Answer, error) {
	attempt := integration.AttemptFromContext(req.Context())
	if attempt == 0 {
		in.mu.Lock()
		in.fallback[req.QueryID]++
		attempt = in.fallback[req.QueryID]
		in.mu.Unlock()
	}
	system := in.inner.Name()
	eff := resolve(in.plan.Match(system, req.QueryID, attempt), system, req.QueryID, attempt)
	rec := explain.FromContext(req.Context())

	if eff.delay > 0 {
		in.count(KindLatency, system)
		if rec != nil {
			rec.Event(explain.KindFault, "latency", explain.A("delay", eff.delay.String()), explain.A("attempt", fmt.Sprintf("%d", attempt)))
		}
		time.Sleep(eff.delay)
	}
	if eff.fail != nil {
		in.count(eff.fail.Kind, system)
		if rec != nil {
			rec.Event(explain.KindFault, string(eff.fail.Kind), explain.A("attempt", fmt.Sprintf("%d", attempt)))
		}
		return nil, eff.fail
	}

	ans, err := in.inner.Answer(req)
	if err != nil || ans == nil {
		return ans, err
	}

	if eff.drip != nil {
		in.count(KindDrip, system)
		if rec != nil {
			rec.Event(explain.KindFault, "drip", explain.A("chunk", fmt.Sprintf("%d", eff.drip.Chunk)), explain.A("attempt", fmt.Sprintf("%d", attempt)))
		}
		rows, derr := dripRows(req.QueryID, ans.Rows, eff.drip)
		if derr != nil {
			return nil, &InjectedError{Kind: KindDrip, System: system, Query: req.QueryID, Attempt: attempt}
		}
		ans = &integration.Answer{Rows: rows, Effort: ans.Effort, Functions: ans.Functions}
	}
	if eff.truncate != nil {
		in.count(KindTruncate, system)
		if rec != nil {
			rec.Event(explain.KindFault, "truncate", explain.A("fraction", fmt.Sprintf("%g", eff.truncate.Fraction)), explain.A("attempt", fmt.Sprintf("%d", attempt)))
		}
		rows, terr := truncateRows(req.QueryID, ans.Rows, eff.truncate)
		if terr != nil {
			// The cut landed mid-tag: the re-parse fails like a dropped
			// connection would, and the attempt dies retryably.
			return nil, &InjectedError{Kind: KindTruncate, System: system, Query: req.QueryID, Attempt: attempt}
		}
		ans = &integration.Answer{Rows: rows, Effort: ans.Effort, Functions: ans.Functions}
	}
	return ans, nil
}

// count bumps the injected-fault counter, if a registry is attached.
func (in *injector) count(kind Kind, system string) {
	if in.reg == nil {
		return
	}
	in.reg.Counter(MetricInjected, telemetry.L("kind", string(kind)), telemetry.L("system", system)).Inc()
}

// dripRows round-trips the rows through their XML serialization read via a
// DripReader: the bytes arrive intact but late.
func dripRows(queryID int, rows []integration.Row, r *Rule) ([]integration.Row, error) {
	payload := []byte(integration.RowsToXML(queryID, rows).Encode())
	dr := NewDripReader(payload, r.Chunk, time.Duration(r.LatencyMS)*time.Millisecond)
	data, err := io.ReadAll(dr)
	if err != nil {
		return nil, err
	}
	doc, err := xmldom.ParseString(string(data))
	if err != nil {
		return nil, err
	}
	return integration.RowsFromXML(doc)
}

// truncateRows cuts the rows' XML serialization short and re-parses what
// survives: either a parse error (malformed XML) or a silently partial
// result the scorecard will mark incorrect.
func truncateRows(queryID int, rows []integration.Row, r *Rule) ([]integration.Row, error) {
	payload := []byte(integration.RowsToXML(queryID, rows).Encode())
	doc, err := xmldom.ParseString(string(Truncate(payload, r.Fraction)))
	if err != nil {
		return nil, err
	}
	return integration.RowsFromXML(doc)
}
