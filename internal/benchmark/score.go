package benchmark

import (
	"fmt"
	"sort"
	"strings"

	"thalia/internal/explain"
	"thalia/internal/integration"
	"thalia/internal/journal"
)

// QueryResult is the outcome of one benchmark query for one system.
type QueryResult struct {
	QueryID int
	// Supported is false when the system declined the query
	// (integration.ErrUnsupported) — it scores no point.
	Supported bool
	// Correct means the integrated rows matched the expected answer exactly
	// (as a multiset).
	Correct bool
	// Effort is the system's self-reported programmatic effort.
	Effort integration.Effort
	// Functions are the external functions the system invoked.
	Functions []integration.FunctionUse
	// Missing and Extra diagnose an incorrect answer.
	Missing []integration.Row
	Extra   []integration.Row
	// Err records an evaluation failure other than ErrUnsupported.
	Err string
	// Explain is the cell's explain trace, populated only when the runner's
	// ExplainFailures mode is on and the cell failed (or by Runner.Explain).
	// Its root eval span times the Answer call. It stays out of Format so
	// scorecards are unchanged by recording.
	Explain *explain.Trace
	// Degraded marks a cell that exhausted its resilience-policy retries
	// (or hit a permanent fault); Attempts is its attempt history. Both
	// are populated only when the runner has a Resilience policy, and both
	// stay out of Format — FormatChaos renders them — so plain scorecards
	// are unchanged by the policy.
	Degraded bool
	Attempts []journal.Attempt
}

// Complexity is the query's contribution to the complexity score: the sum
// of the complexities of the external functions invoked, or (when a system
// reports effort without itemized functions) the effort's complexity.
func (r *QueryResult) Complexity() int {
	if !r.Supported {
		return 0
	}
	if len(r.Functions) == 0 {
		return r.Effort.Complexity()
	}
	total := 0
	for _, f := range r.Functions {
		total += f.Complexity
	}
	return total
}

// Scorecard is a system's full benchmark outcome.
type Scorecard struct {
	System      string
	Description string
	Results     []QueryResult
}

// CorrectCount is the paper's primary score: one point per correctly
// answered query, out of 12.
func (s *Scorecard) CorrectCount() int {
	n := 0
	for _, r := range s.Results {
		if r.Correct {
			n++
		}
	}
	return n
}

// SupportedCount counts the queries the system attempted.
func (s *Scorecard) SupportedCount() int {
	n := 0
	for _, r := range s.Results {
		if r.Supported {
			n++
		}
	}
	return n
}

// NoCodeCount counts supported queries answered with no custom code.
func (s *Scorecard) NoCodeCount() int {
	n := 0
	for _, r := range s.Results {
		if r.Supported && r.Effort == integration.EffortNone {
			n++
		}
	}
	return n
}

// ComplexityScore is the tie-breaking score: the total complexity of all
// external functions invoked. Per the paper, the higher the complexity
// score, the lower the level of sophistication of the integration system.
func (s *Scorecard) ComplexityScore() int {
	total := 0
	for _, r := range s.Results {
		total += r.Complexity()
	}
	return total
}

// Result returns the outcome for a query id, or nil.
func (s *Scorecard) Result(queryID int) *QueryResult {
	for i := range s.Results {
		if s.Results[i].QueryID == queryID {
			return &s.Results[i]
		}
	}
	return nil
}

// Rank orders scorecards by the paper's scheme (journal.Outranks), best
// first: more correct answers, then the lower complexity score, then name.
func Rank(cards []*Scorecard) []*Scorecard {
	out := append([]*Scorecard(nil), cards...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		return journal.Outranks(a.System, a.CorrectCount(), a.ComplexityScore(), b.System, b.CorrectCount(), b.ComplexityScore())
	})
	return out
}

// Format renders a scorecard as the per-query table of Section 4.2.
func (s *Scorecard) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "System: %s\n", s.System)
	if s.Description != "" {
		fmt.Fprintf(&b, "  %s\n", s.Description)
	}
	for _, r := range s.Results {
		status := "unsupported"
		if r.Supported {
			if r.Correct {
				status = "correct"
			} else {
				status = "INCORRECT"
			}
		}
		fmt.Fprintf(&b, "  Query %2d: %-11s  effort: %-25s complexity: %d",
			r.QueryID, status, r.Effort, r.Complexity())
		if len(r.Functions) > 0 {
			names := make([]string, len(r.Functions))
			for i, f := range r.Functions {
				names[i] = f.Name
			}
			fmt.Fprintf(&b, "  functions: %s", strings.Join(names, ", "))
		}
		if r.Err != "" {
			fmt.Fprintf(&b, "  error: %s", r.Err)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  Score: %d/%d correct, complexity score %d (%d queries with no code)\n",
		s.CorrectCount(), len(s.Results), s.ComplexityScore(), s.NoCodeCount())
	return b.String()
}

// HonorRollEntry is one uploaded benchmark score.
type HonorRollEntry struct {
	System     string
	Group      string // the research group or vendor that uploaded the score
	Correct    int
	Complexity int
}

// HonorRoll is the public ranking the THALIA web site maintains. It keeps
// its honorRollSize best entries, in rank order.
type HonorRoll struct {
	Entries []HonorRollEntry
}

// honorRollSize bounds the Honor Roll, so uploads cannot grow it without
// limit.
const honorRollSize = 1000

// Add inserts an entry from a scorecard.
func (h *HonorRoll) Add(group string, s *Scorecard) {
	h.Entries = append(h.Entries, HonorRollEntry{
		System:     s.System,
		Group:      group,
		Correct:    s.CorrectCount(),
		Complexity: s.ComplexityScore(),
	})
	h.sort()
}

// AddEntry inserts a pre-computed entry (scores uploaded by third parties).
func (h *HonorRoll) AddEntry(e HonorRollEntry) {
	h.Entries = append(h.Entries, e)
	h.sort()
}

// sort ranks the entries and drops those beyond honorRollSize, the
// lowest-ranked.
func (h *HonorRoll) sort() {
	sort.SliceStable(h.Entries, func(i, j int) bool {
		a, b := &h.Entries[i], &h.Entries[j]
		return journal.Outranks(a.System, a.Correct, a.Complexity, b.System, b.Correct, b.Complexity)
	})
	if len(h.Entries) > honorRollSize {
		clear(h.Entries[honorRollSize:])
		h.Entries = h.Entries[:honorRollSize]
	}
}
