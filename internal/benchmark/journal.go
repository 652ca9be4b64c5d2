package benchmark

import (
	"time"

	"thalia/internal/journal"
	"thalia/internal/telemetry"
)

// cellEvent converts one finished cell into its journal payload. Only the
// deterministic outcome facts plus the measured latency and (for failed
// cells that carry a trace) the explain digest are recorded — full explain
// traces and row-level diffs stay out of the journal to keep events
// compact; `thalia bench --explain-dir` still captures full traces.
func cellEvent(system string, res QueryResult, latency time.Duration) journal.Cell {
	c := journal.Cell{
		System:     system,
		Query:      res.QueryID,
		Supported:  res.Supported,
		Correct:    res.Correct,
		Effort:     res.Effort.String(),
		Complexity: res.Complexity(),
		Err:        res.Err,
		Degraded:   res.Degraded,
		Missing:    len(res.Missing),
		Extra:      len(res.Extra),
		Attempts:   res.Attempts,
		LatencyNS:  latency.Nanoseconds(),
	}
	if res.Explain != nil && !res.Explain.Empty() {
		c.ExplainDigest = res.Explain.Digest()
	}
	return c
}

// JournalCards converts ranked scorecards into their journal form — the
// cards the run-end digest is computed over. The conversion is cellEvent
// itself, so a projection that rebuilds cards from the emitted cell events
// reproduces these structurally, latency aside (which the digest excludes).
func JournalCards(ranked []*Scorecard) []*journal.Card {
	out := make([]*journal.Card, len(ranked))
	for i, card := range ranked {
		jc := &journal.Card{System: card.System, Cells: make([]journal.Cell, len(card.Results))}
		for j, res := range card.Results {
			jc.Cells[j] = cellEvent(card.System, res, 0)
		}
		out[i] = jc
	}
	return out
}

// ScorecardDigest fingerprints ranked scorecards the way run-end events
// record them: the journal digest of their converted cards.
func ScorecardDigest(ranked []*Scorecard) string {
	return journal.DigestCards(JournalCards(ranked))
}

// telemetryInterval is how often a journaled run samples its metrics
// registry into telemetry events while it is in flight.
const telemetryInterval = 250 * time.Millisecond

// startTelemetrySampler launches the journal's periodic telemetry sampling:
// every telemetryInterval the runtime vitals are captured into the run's
// registry and a full snapshot is appended as a telemetry event. The
// returned stop function halts the sampler and waits for it to exit, then
// appends one final snapshot so even runs shorter than the interval journal
// their metrics.
func startTelemetrySampler(jr *journal.Recorder, tel *telemetry.Registry) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(telemetryInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				telemetry.CaptureRuntime(tel)
				jr.Telemetry(tel.Snapshot())
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		telemetry.CaptureRuntime(tel)
		jr.Telemetry(tel.Snapshot())
	}
}
