package journal

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// Report renders the projection as the human-readable run report behind
// `thalia-bench report`: run header, rank table, per-system/per-query
// latency table, the retry/fault timeline, and degraded-cell postmortems
// with their explain digests.
func (p *Projection) Report() string {
	var b strings.Builder
	b.WriteString("THALIA run report\n")
	if s := p.Start; s != nil {
		fmt.Fprintf(&b, "run:      %s (schema v%d)\n", s.RunID, s.Schema)
		if s.Harness != "" {
			fmt.Fprintf(&b, "harness:  %s\n", s.Harness)
		}
		fmt.Fprintf(&b, "started:  %s\n", s.StartedAt.Format(time.RFC3339))
		build := s.Version
		if s.Revision != "" {
			build += " (" + s.Revision + ")"
		}
		if s.GoVersion != "" {
			build += " " + s.GoVersion
		}
		if strings.TrimSpace(build) != "" {
			fmt.Fprintf(&b, "build:    %s\n", strings.TrimSpace(build))
		}
		fmt.Fprintf(&b, "config:   %d system(s) × %d queries, pool %d",
			len(s.Systems), s.Queries, s.Concurrency)
		if s.Resilience {
			fmt.Fprintf(&b, ", resilience on (seed %d)", s.Seed)
		}
		if s.FaultPlanDigest != "" {
			fmt.Fprintf(&b, ", faults %s", s.FaultPlanDigest)
		}
		b.WriteString("\n")
	}
	switch {
	case p.Complete():
		fmt.Fprintf(&b, "status:   complete — %d cells", p.End.Cells)
		if p.End.Degraded > 0 {
			fmt.Fprintf(&b, ", %d degraded", p.End.Degraded)
		}
		if p.End.ElapsedNS > 0 {
			fmt.Fprintf(&b, ", %s", time.Duration(p.End.ElapsedNS).Round(time.Millisecond))
		}
		b.WriteString("\n")
	default:
		fmt.Fprintf(&b, "status:   INCOMPLETE — %d/%d cells done, no run_end event\n",
			p.CellsDone, p.CellsStarted)
	}

	cards := p.Cards()
	if len(cards) > 0 {
		b.WriteString("\nRanking\n")
		for i, c := range cards {
			fmt.Fprintf(&b, "  %d. %-26s %2d/%d correct  complexity %d\n",
				i+1, c.System, c.Correct(), len(c.Cells), c.Complexity())
		}

		b.WriteString("\nPer-cell outcome and latency\n")
		fmt.Fprintf(&b, "  %-26s %-5s %-11s %-9s %10s\n", "SYSTEM", "QUERY", "OUTCOME", "ATTEMPTS", "LATENCY")
		for _, c := range cards {
			for _, cell := range c.Cells {
				fmt.Fprintf(&b, "  %-26s q%02d   %-11s %-9s %10s\n",
					c.System, cell.Query, cellOutcome(cell), attemptsLabel(cell),
					time.Duration(cell.LatencyNS).Round(time.Microsecond))
			}
		}
	}

	if timeline := p.retryTimeline(); len(timeline) > 0 {
		b.WriteString("\nRetry and fault timeline\n")
		for _, line := range timeline {
			b.WriteString("  " + line + "\n")
		}
	}

	if degraded := p.Degraded(); len(degraded) > 0 {
		b.WriteString("\nDegraded-cell postmortems\n")
		for _, cell := range degraded {
			fmt.Fprintf(&b, "  %s q%02d: %s\n", cell.System, cell.Query, cell.Err)
			for _, a := range cell.Attempts {
				fmt.Fprintf(&b, "    attempt %d: %s\n", a.N, a.Outcome())
			}
			if cell.ExplainDigest != "" {
				fmt.Fprintf(&b, "    %s\n", cell.ExplainDigest)
			}
		}
	}

	if p.Complete() {
		fmt.Fprintf(&b, "\nrecorded digest: %s\n", p.End.Digest)
		fmt.Fprintf(&b, "replayed digest: %s\n", p.Digest())
	}
	return b.String()
}

// cellOutcome names a cell's result the way the chaos report does.
func cellOutcome(c Cell) string {
	switch {
	case c.Degraded:
		return "DEGRADED"
	case !c.Supported && c.Err == "":
		return "declined"
	case c.Err != "":
		return "error"
	case c.Correct:
		return "correct"
	default:
		return "INCORRECT"
	}
}

func attemptsLabel(c Cell) string {
	if len(c.Attempts) == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", len(c.Attempts))
}

// Outcome renders one attempt the way the run report and the chaos report
// print it: how it ended, then the backoff before the next attempt.
func (a Attempt) Outcome() string {
	var s string
	switch {
	case a.Shed:
		s = "shed (breaker open)"
	case a.Err == "":
		s = "ok"
	case a.Transient:
		s = "transient error: " + a.Err
	default:
		s = "permanent error: " + a.Err
	}
	if a.BackoffNS > 0 {
		s += fmt.Sprintf("  (retry in %s)", time.Duration(a.BackoffNS))
	}
	return s
}

// retryTimeline lists every cell that needed more than a single clean
// attempt, in rank then query order.
func (p *Projection) retryTimeline() []string {
	var out []string
	for _, card := range p.Cards() {
		for _, cell := range card.Cells {
			if len(cell.Attempts) <= 1 && (len(cell.Attempts) == 0 || cell.Attempts[0].Err == "") {
				continue
			}
			parts := make([]string, len(cell.Attempts))
			for i, a := range cell.Attempts {
				switch {
				case a.Shed:
					parts[i] = "shed"
				case a.Err == "":
					parts[i] = "ok"
				case a.Transient:
					parts[i] = "transient"
				default:
					parts[i] = "permanent"
				}
			}
			out = append(out, fmt.Sprintf("%s q%02d: %s", card.System, cell.Query, strings.Join(parts, " → ")))
		}
	}
	return out
}

// ReportSummary is the machine-readable form of the report (-json).
type ReportSummary struct {
	RunID            string      `json:"run_id"`
	Start            *RunStart   `json:"start,omitempty"`
	Complete         bool        `json:"complete"`
	CellsDone        int         `json:"cells_done"`
	TelemetrySamples int         `json:"telemetry_samples"`
	LastSeq          uint64      `json:"last_seq"`
	Rank             []RankEntry `json:"rank"`
	RecordedDigest   string      `json:"recorded_digest,omitempty"`
	ReplayedDigest   string      `json:"replayed_digest"`
	Degraded         []Cell      `json:"degraded,omitempty"`
}

// Summary assembles the machine-readable report.
func (p *Projection) Summary() ReportSummary {
	s := ReportSummary{
		RunID:            p.RunID,
		Start:            p.Start,
		Complete:         p.Complete(),
		CellsDone:        p.CellsDone,
		TelemetrySamples: p.TelemetrySamples,
		LastSeq:          p.LastSeq,
		Rank:             RankTable(p.Cards()),
		ReplayedDigest:   p.Digest(),
		Degraded:         p.Degraded(),
	}
	if p.End != nil {
		s.RecordedDigest = p.End.Digest
	}
	return s
}

// JSON renders the machine-readable report as indented JSON.
func (p *Projection) JSON() ([]byte, error) {
	return json.MarshalIndent(p.Summary(), "", "  ")
}
