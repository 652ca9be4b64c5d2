// Package journal is the flight recorder of a benchmark run: an
// append-only JSONL log of typed, schema-versioned events that captures how
// a result was produced — run configuration and build info, every cell's
// lifecycle (queued → attempts → result, with retry/breaker/degradation
// detail), periodic telemetry snapshots, and the final ranked outcome.
//
// A journal makes a run a durable artifact instead of stdout scroll: it can
// be replayed into a Projection (the materialized run summary the web
// site's /runs routes serve), streamed live over SSE, and rendered into a
// human report by `thalia-bench report`. The determinism contract mirrors
// the rest of the harness: journaling only observes — scorecards are
// byte-identical with a journal attached or not — and the deterministic
// subset of the recorded facts (everything except wall-clock timestamps and
// latencies) replays to the exact ranked-scorecard digest stamped into the
// run-end event.
package journal

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"thalia/internal/telemetry"
)

// SchemaVersion is the journal event-schema version, stamped into every
// run-start event. Versioning rule: additive fields (new optional payload
// members, new event types) do not bump the version — readers ignore what
// they don't know; any change that alters the meaning or encoding of an
// existing field does.
const SchemaVersion = 1

// EventType discriminates journal events.
type EventType string

const (
	// TypeRunStart opens a journal: run identity, configuration, seed,
	// fault-plan digest and build info.
	TypeRunStart EventType = "run_start"
	// TypeCellStart marks a query×system cell leaving the queue for a
	// worker.
	TypeCellStart EventType = "cell_start"
	// TypeCellDone carries a cell's full result: outcome, effort,
	// attempt history, latency, and the explain digest of a failed cell.
	TypeCellDone EventType = "cell_done"
	// TypeTelemetry is a periodic snapshot of the run's metrics registry
	// (including the runtime vitals of telemetry.CaptureRuntime).
	TypeTelemetry EventType = "telemetry"
	// TypeRunEnd closes a journal: ranked outcome and scorecard digest.
	TypeRunEnd EventType = "run_end"
)

// Event is one journal record: the envelope (monotonic sequence number and
// type) plus exactly one payload matching the type.
type Event struct {
	Seq  uint64    `json:"seq"`
	Type EventType `json:"type"`

	RunStart  *RunStart           `json:"run_start,omitempty"`
	Cell      *Cell               `json:"cell,omitempty"`
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	RunEnd    *RunEnd             `json:"run_end,omitempty"`
}

// MarshalLine renders the event as its canonical single-line JSON — the
// exact bytes the writer appends to a journal and the SSE stream sends as
// an event's data field.
func (e Event) MarshalLine() ([]byte, error) { return json.Marshal(e) }

// RunStart is the opening event's payload.
type RunStart struct {
	// RunID names the run; journal files are conventionally <RunID>.jsonl.
	RunID string `json:"run_id"`
	// Schema is the event-schema version the rest of the journal uses.
	Schema int `json:"schema"`
	// StartedAt is the wall-clock start (informational; excluded from the
	// digest contract like every timestamp).
	StartedAt time.Time `json:"started_at"`
	// Harness names the entry point that produced the run, e.g.
	// "thalia bench" or "thalia-server".
	Harness string `json:"harness,omitempty"`
	// Systems are the systems under evaluation, in input order.
	Systems []string `json:"systems"`
	// Queries is the number of benchmark queries per system.
	Queries int `json:"queries"`
	// Concurrency is the resolved worker-pool size.
	Concurrency int `json:"concurrency"`
	// Seed is the fault/jitter seed of a chaos run (0 when none).
	Seed int64 `json:"seed,omitempty"`
	// FaultPlanDigest fingerprints the injected fault plan, "" when the
	// run is fault-free.
	FaultPlanDigest string `json:"fault_plan_digest,omitempty"`
	// Resilience reports whether the retry/breaker policy was active.
	Resilience bool `json:"resilience,omitempty"`
	// Build info: module version, VCS revision, go version, GOMAXPROCS.
	Version    string `json:"version,omitempty"`
	Revision   string `json:"revision,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs,omitempty"`
}

// Attempt mirrors one entry of a cell's resilience attempt history. Only
// deterministic facts are recorded (outcome, classification, scheduled
// backoff), never measured durations — same-seed runs journal byte-equal
// attempt histories.
type Attempt struct {
	N         int    `json:"n"`
	Err       string `json:"err,omitempty"`
	Transient bool   `json:"transient,omitempty"`
	BackoffNS int64  `json:"backoff_ns,omitempty"`
	Shed      bool   `json:"shed,omitempty"`
}

// Cell is the payload of cell_start and cell_done events. cell_start fills
// only System and Query; cell_done carries the full outcome.
type Cell struct {
	System string `json:"system"`
	Query  int    `json:"query"`

	Supported bool `json:"supported,omitempty"`
	Correct   bool `json:"correct,omitempty"`
	// Effort is the string form of the system's self-reported effort.
	Effort string `json:"effort,omitempty"`
	// Complexity is the cell's contribution to the complexity score.
	Complexity int    `json:"complexity,omitempty"`
	Err        string `json:"err,omitempty"`
	Degraded   bool   `json:"degraded,omitempty"`
	// Missing and Extra count the rows diagnosing an incorrect answer.
	Missing int `json:"missing,omitempty"`
	Extra   int `json:"extra,omitempty"`
	// Attempts is the resilience attempt history (nil without a policy).
	Attempts []Attempt `json:"attempts,omitempty"`
	// LatencyNS is the measured cell latency — informational, excluded
	// from the digest like every measured duration.
	LatencyNS int64 `json:"latency_ns,omitempty"`
	// ExplainDigest is the one-line explain digest of a failed cell's
	// trace ("" for passing cells or runs without explain recording).
	ExplainDigest string `json:"explain_digest,omitempty"`
}

// RankEntry is one row of the run-end rank table.
type RankEntry struct {
	Rank       int    `json:"rank"`
	System     string `json:"system"`
	Correct    int    `json:"correct"`
	Complexity int    `json:"complexity"`
}

// RunEnd is the closing event's payload.
type RunEnd struct {
	// Digest is the ranked-scorecard digest: DigestCards over the run's
	// ranked cards. Replaying the journal's cell events must reproduce it
	// exactly — the projection-completeness check `thalia-bench report`
	// enforces.
	Digest string `json:"digest"`
	// Rank is the final ranking, best first.
	Rank []RankEntry `json:"rank"`
	// Cells and Degraded count evaluated and degraded cells.
	Cells    int `json:"cells"`
	Degraded int `json:"degraded,omitempty"`
	// ElapsedNS is the run's wall-clock duration (informational).
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`
}

// Card is a system's journaled scorecard: its cell_done payloads in query
// order. Cards are what the digest and the rank table are computed over —
// both live (the engine converts its scorecards) and on replay (the
// projection rebuilds them from cell events), so the two sides agree
// structurally by construction.
type Card struct {
	System string `json:"system"`
	Cells  []Cell `json:"cells"`
}

// Correct counts the card's correct cells.
func (c *Card) Correct() int {
	n := 0
	for _, cell := range c.Cells {
		if cell.Correct {
			n++
		}
	}
	return n
}

// Complexity sums the card's complexity contributions.
func (c *Card) Complexity() int {
	n := 0
	for _, cell := range c.Cells {
		n += cell.Complexity
	}
	return n
}

// Outranks reports whether system a, with aCorrect correct answers and
// complexity score aComplexity, ranks above system b by the paper's scheme:
// more correct answers first; among equals, the lower complexity score
// (more sophistication) wins; the system name breaks any remaining tie, so
// the order is total. Rank, benchmark.Rank and the Honor Roll all order by
// it.
func Outranks(a string, aCorrect, aComplexity int, b string, bCorrect, bComplexity int) bool {
	if aCorrect != bCorrect {
		return aCorrect > bCorrect
	}
	if aComplexity != bComplexity {
		return aComplexity < bComplexity
	}
	return a < b
}

// Rank orders cards by Outranks, best first.
func Rank(cards []*Card) []*Card {
	out := append([]*Card(nil), cards...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		return Outranks(a.System, a.Correct(), a.Complexity(), b.System, b.Correct(), b.Complexity())
	})
	return out
}

// RankTable renders ranked cards as run-end rank entries.
func RankTable(ranked []*Card) []RankEntry {
	out := make([]RankEntry, len(ranked))
	for i, c := range ranked {
		out[i] = RankEntry{Rank: i + 1, System: c.System, Correct: c.Correct(), Complexity: c.Complexity()}
	}
	return out
}

// digestCell is a Cell reduced to its deterministic fields: measured
// latency and wall-clock facts are excluded, so the digest of a replayed
// journal equals the digest of the live run that wrote it.
type digestCell struct {
	System     string    `json:"system"`
	Query      int       `json:"query"`
	Supported  bool      `json:"supported"`
	Correct    bool      `json:"correct"`
	Effort     string    `json:"effort"`
	Complexity int       `json:"complexity"`
	Err        string    `json:"err"`
	Degraded   bool      `json:"degraded"`
	Missing    int       `json:"missing"`
	Extra      int       `json:"extra"`
	Attempts   []Attempt `json:"attempts"`
}

// DigestCards fingerprints ranked cards: sha256 over the canonical JSON of
// every cell's deterministic fields, in rank then query order. This is the
// value stamped into run-end events and recomputed by projections.
func DigestCards(ranked []*Card) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, card := range ranked {
		for _, cell := range card.Cells {
			// Encode errors are impossible for this fixed shape.
			_ = enc.Encode(digestCell{
				System: card.System, Query: cell.Query,
				Supported: cell.Supported, Correct: cell.Correct,
				Effort: cell.Effort, Complexity: cell.Complexity,
				Err: cell.Err, Degraded: cell.Degraded,
				Missing: cell.Missing, Extra: cell.Extra,
				Attempts: cell.Attempts,
			})
		}
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}
