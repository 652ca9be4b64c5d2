package journal

import (
	"runtime"
	"time"

	"thalia/internal/buildinfo"
	"thalia/internal/telemetry"
)

// Recorder binds a Writer to the run-level metadata the engine itself
// cannot know — the harness name, the fault-plan digest — and offers typed
// append methods for each event. The benchmark runner holds a *Recorder as
// its opt-in journal sink: a nil Recorder means no journaling at all (the
// engine takes its original zero-overhead path).
type Recorder struct {
	W *Writer
	// RunID names the run in the run-start event.
	RunID string
	// Harness names the producing entry point ("thalia bench", ...).
	Harness string
	// FaultPlanDigest fingerprints the injected fault plan, if any.
	FaultPlanDigest string
}

// RunStart appends the opening event, stamping schema version, wall-clock
// start, build info, and the recorder's run metadata. seed is the
// resilience policy's jitter seed (0 for none).
func (r *Recorder) RunStart(systems []string, queries, concurrency int, resilience bool, seed int64) {
	info := buildinfo.Read()
	_, _ = r.W.Append(Event{Type: TypeRunStart, RunStart: &RunStart{
		RunID:           r.RunID,
		Schema:          SchemaVersion,
		StartedAt:       time.Now().UTC(),
		Harness:         r.Harness,
		Systems:         systems,
		Queries:         queries,
		Concurrency:     concurrency,
		Seed:            seed,
		FaultPlanDigest: r.FaultPlanDigest,
		Resilience:      resilience,
		Version:         info.Version,
		Revision:        info.Revision,
		GoVersion:       info.GoVersion,
		GoMaxProcs:      runtime.GOMAXPROCS(0),
	}})
}

// CellStart appends a cell's dequeue event.
func (r *Recorder) CellStart(system string, query int) {
	_, _ = r.W.Append(Event{Type: TypeCellStart, Cell: &Cell{System: system, Query: query}})
}

// CellDone appends a cell's result event.
func (r *Recorder) CellDone(c Cell) {
	_, _ = r.W.Append(Event{Type: TypeCellDone, Cell: &c})
}

// Telemetry appends a metrics snapshot event.
func (r *Recorder) Telemetry(snap *telemetry.Snapshot) {
	_, _ = r.W.Append(Event{Type: TypeTelemetry, Telemetry: snap})
}

// RunEnd appends the closing event: the ranked cards' digest and rank
// table plus run totals.
func (r *Recorder) RunEnd(ranked []*Card, elapsed time.Duration) {
	cells, degraded := 0, 0
	for _, c := range ranked {
		cells += len(c.Cells)
		for _, cell := range c.Cells {
			if cell.Degraded {
				degraded++
			}
		}
	}
	_, _ = r.W.Append(Event{Type: TypeRunEnd, RunEnd: &RunEnd{
		Digest:    DigestCards(ranked),
		Rank:      RankTable(ranked),
		Cells:     cells,
		Degraded:  degraded,
		ElapsedNS: elapsed.Nanoseconds(),
	}})
}
