package benchmark

import (
	"bytes"
	"testing"

	"thalia/internal/faultline"
	"thalia/internal/integration"
	"thalia/internal/journal"
	"thalia/internal/telemetry"
)

// recordingRunner builds a runner with a flight recorder writing into buf.
func recordingRunner(buf *bytes.Buffer, workers int, res *Resilience) *Runner {
	return &Runner{
		Queries: Queries(), Concurrency: workers, Resilience: res,
		Journal: &journal.Recorder{
			W: journal.NewWriter(buf), RunID: "test-run", Harness: "benchmark-test",
		},
	}
}

// Replaying the journal's cell events must rebuild the exact ranked cards
// the run-end event recorded — the digest ties live run to replay.
func TestJournalReplayReproducesRunDigest(t *testing.T) {
	var buf bytes.Buffer
	cards, err := recordingRunner(&buf, 4, nil).EvaluateAll(allSystems()...)
	if err != nil {
		t.Fatal(err)
	}
	events, err := journal.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	p := journal.Replay(events)
	if err := p.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	live := ScorecardDigest(cards)
	if p.End.Digest != live {
		t.Errorf("run-end digest %s != live scorecard digest %s", p.End.Digest, live)
	}
	if got := p.Digest(); got != live {
		t.Errorf("replayed digest %s != live scorecard digest %s", got, live)
	}
}

// A chaos run under faults and resilience must journal attempt histories
// and degraded cells, and still replay to the recorded digest.
func TestJournalCapturesChaosRun(t *testing.T) {
	plan := &faultline.Plan{Seed: 3, Rules: []faultline.Rule{
		{Attempt: 1, Kind: faultline.KindTransient, Probability: 1},
		{System: "Cohera", Query: 5, Kind: faultline.KindPermanent, Probability: 1},
	}}
	var wrapped []integration.System
	for _, sys := range allSystems() {
		wrapped = append(wrapped, faultline.Wrap(sys, plan, nil))
	}
	var buf bytes.Buffer
	r := recordingRunner(&buf, 4, DefaultResilience(3))
	r.Journal.FaultPlanDigest = plan.Digest()
	if _, err := r.EvaluateAll(wrapped...); err != nil {
		t.Fatal(err)
	}
	events, err := journal.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	p := journal.Replay(events)
	if err := p.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if p.Start.Seed != 3 || p.Start.FaultPlanDigest != plan.Digest() {
		t.Errorf("run_start lost chaos provenance: seed=%d plan=%q", p.Start.Seed, p.Start.FaultPlanDigest)
	}
	if !p.Start.Resilience {
		t.Error("run_start must record that resilience was on")
	}
	retried, degraded := 0, 0
	for _, card := range p.Cards() {
		for _, cell := range card.Cells {
			if len(cell.Attempts) > 1 {
				retried++
			}
			if cell.Degraded {
				degraded++
			}
		}
	}
	if retried == 0 {
		t.Error("universal attempt-1 transient fault must journal retried cells")
	}
	if degraded == 0 {
		t.Error("permanent fault on Cohera q5 must journal a degraded cell")
	}
	if len(p.Degraded()) != degraded {
		t.Errorf("Degraded() = %d cells, cards say %d", len(p.Degraded()), degraded)
	}
}

// Every cell must appear exactly once as cell_start and once as cell_done,
// with latency measured.
func TestJournalCellLifecycleComplete(t *testing.T) {
	var buf bytes.Buffer
	if _, err := recordingRunner(&buf, 2, nil).EvaluateAll(allSystems()...); err != nil {
		t.Fatal(err)
	}
	events, err := journal.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		sys string
		q   int
	}
	started, done := map[key]int{}, map[key]int{}
	for _, e := range events {
		switch e.Type {
		case journal.TypeCellStart:
			started[key{e.Cell.System, e.Cell.Query}]++
		case journal.TypeCellDone:
			done[key{e.Cell.System, e.Cell.Query}]++
			if e.Cell.LatencyNS <= 0 {
				t.Errorf("cell %s q%d: no latency recorded", e.Cell.System, e.Cell.Query)
			}
		}
	}
	wantCells := len(allSystems()) * len(Queries())
	if len(started) != wantCells || len(done) != wantCells {
		t.Fatalf("saw %d starts / %d dones, want %d distinct cells", len(started), len(done), wantCells)
	}
	for k, n := range started {
		if n != 1 || done[k] != 1 {
			t.Errorf("cell %v: %d starts, %d dones; want exactly one of each", k, n, done[k])
		}
	}
}

// journal.Rank and benchmark.Rank order by the same journal.Outranks, but
// each counts correct answers and complexity over its own card type; the
// cross-check keeps those counts, and so the two rankings, from drifting
// apart.
func TestJournalRankMatchesBenchmarkRank(t *testing.T) {
	cards, err := NewRunner().EvaluateAll(allSystems()...)
	if err != nil {
		t.Fatal(err)
	}
	jranked := journal.Rank(JournalCards(cards))
	for i, card := range cards {
		if jranked[i].System != card.System {
			t.Fatalf("rank %d: journal says %s, benchmark says %s", i+1, jranked[i].System, card.System)
		}
		if jranked[i].Correct() != card.CorrectCount() || jranked[i].Complexity() != card.ComplexityScore() {
			t.Errorf("%s: journal %d/%d vs benchmark %d/%d (correct/complexity)",
				card.System, jranked[i].Correct(), jranked[i].Complexity(),
				card.CorrectCount(), card.ComplexityScore())
		}
	}
}

// With telemetry attached, journaled runs sample snapshots that include the
// runtime vitals, and the final snapshot lands before run_end.
func TestJournalSamplesTelemetry(t *testing.T) {
	var buf bytes.Buffer
	r := recordingRunner(&buf, 2, nil)
	r.Telemetry = telemetry.NewRegistry()
	if _, err := r.EvaluateAll(allSystems()...); err != nil {
		t.Fatal(err)
	}
	events, err := journal.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	samples, lastTelemetry, runEnd := 0, 0, 0
	for i, e := range events {
		switch e.Type {
		case journal.TypeTelemetry:
			samples++
			lastTelemetry = i
			vitals := false
			for _, g := range e.Telemetry.Gauges {
				if g.Name == telemetry.MetricGoroutines {
					vitals = true
				}
			}
			if !vitals {
				t.Error("telemetry snapshot missing runtime vitals")
			}
		case journal.TypeRunEnd:
			runEnd = i
		}
	}
	if samples == 0 {
		t.Fatal("no telemetry events journaled")
	}
	if lastTelemetry > runEnd {
		t.Errorf("telemetry event at %d after run_end at %d", lastTelemetry, runEnd)
	}
}

// A journal write error must never fail the run: scorecards still come back.
func TestJournalWriteErrorDoesNotFailRun(t *testing.T) {
	w := journal.NewWriter(failWriter{})
	r := &Runner{
		Queries: Queries(), Concurrency: 2,
		Journal: &journal.Recorder{W: w, RunID: "doomed", Harness: "test"},
	}
	cards, err := r.EvaluateAll(allSystems()...)
	if err != nil {
		t.Fatalf("run must survive a broken journal sink: %v", err)
	}
	if len(cards) != len(allSystems()) {
		t.Fatalf("got %d cards, want %d", len(cards), len(allSystems()))
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) {
	return 0, errShortPipe
}

var errShortPipe = &journalSinkError{}

type journalSinkError struct{}

func (*journalSinkError) Error() string { return "journal sink closed" }
