// Package analysis is THALIA's static-analysis subsystem, fronted by the
// thalia-vet command. It has two heads:
//
// The query/schema head checks the benchmark's ground truth before anything
// runs: every benchmark query parses, every path step resolves against the
// XML Schemas the testbed's catalogs actually emit, variables are bound,
// functions exist, comparison operands unify under the schema, the
// declarative mediation tables point at real schema locations, and the
// complexity level the reference mediator charges for each query agrees
// with an automatic estimate derived from the query text and the
// reference/challenge schema gap (divergences must carry a documented
// waiver).
//
// The Go head is a small analyzer framework over go/ast and go/types (no
// external dependencies, mirroring the structure of the go vet driver) with
// repo-specific checks: catalog generators must be deterministic, no panic
// may be reachable from the exported API, and error returns must not be
// silently discarded in the benchmark and integration packages.
//
// Both heads report Findings with file:line positions; any finding is a
// reason to fail CI.
package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Severity grades how a finding affects thalia-vet's exit status: an error
// fails the run outright, a warning is advisory (it fails only under
// -strict, which CI uses). The empty string means SeverityError.
const (
	SeverityError   = "error"
	SeverityWarning = "warning"
)

// Finding is one defect located by an analyzer.
type Finding struct {
	// ID is the finding's stable content-addressed identity: a hash of
	// check, file, symbol, query and normalized message — deliberately not
	// the line/column, so an unrelated refactor that shifts code down a
	// file does not orphan baseline entries. Assigned by Finalize.
	ID string `json:"id,omitempty"`
	// Check names the analyzer that produced the finding.
	Check string `json:"check"`
	// Severity is SeverityError or SeverityWarning ("" means error).
	Severity string `json:"severity,omitempty"`
	// File is the repo-relative file the finding points at ("" when the
	// analysis could not map the finding back to a source file).
	File string `json:"file,omitempty"`
	// Line and Column are 1-based; zero means unknown.
	Line   int `json:"line,omitempty"`
	Column int `json:"column,omitempty"`
	// Symbol is the declaration the finding sits in (a function's
	// qualified name, e.g. "thalia/internal/benchmark.(*Runner).Explain"),
	// "" when the finding is not inside a Go declaration. Part of the
	// stable ID, so findings survive line drift but not moving to another
	// function.
	Symbol string `json:"symbol,omitempty"`
	// QueryID is the benchmark query the finding concerns, 0 if none.
	QueryID int `json:"query,omitempty"`
	// Message describes the defect.
	Message string `json:"message"`
}

// EffectiveSeverity normalizes the empty severity to SeverityError.
func (f Finding) EffectiveSeverity() string {
	if f.Severity == SeverityWarning {
		return SeverityWarning
	}
	return SeverityError
}

// String renders the finding in the file:line: [check] message shape the
// CLI prints.
func (f Finding) String() string {
	var b strings.Builder
	if f.File != "" {
		b.WriteString(f.File)
		if f.Line > 0 {
			fmt.Fprintf(&b, ":%d", f.Line)
			if f.Column > 0 {
				fmt.Fprintf(&b, ":%d", f.Column)
			}
		}
		b.WriteString(": ")
	}
	fmt.Fprintf(&b, "[%s] ", f.Check)
	if f.QueryID > 0 {
		fmt.Fprintf(&b, "query %d: ", f.QueryID)
	}
	b.WriteString(f.Message)
	return b.String()
}

// Report aggregates findings across analyzers.
type Report struct {
	Findings []Finding `json:"findings"`
}

// Add appends findings.
func (r *Report) Add(fs ...Finding) { r.Findings = append(r.Findings, fs...) }

// Sort orders findings by file, line, column, check and message, so output
// is deterministic regardless of analyzer scheduling.
func (r *Report) Sort() {
	sort.Slice(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.QueryID != b.QueryID {
			return a.QueryID < b.QueryID
		}
		return a.Message < b.Message
	})
}

// Finalize orders the findings and assigns every one its stable ID; the
// CLI calls it once after all heads have reported.
func (r *Report) Finalize() {
	r.Sort()
	AssignIDs(r.Findings)
}

// Text renders one finding per line.
func (r *Report) Text() string {
	var b strings.Builder
	for _, f := range r.Findings {
		b.WriteString(f.String())
		b.WriteString("\n")
	}
	return b.String()
}

// JSON renders the report as indented JSON, the -json format of thalia-vet.
func (r *Report) JSON() ([]byte, error) {
	if r.Findings == nil {
		r.Findings = []Finding{}
	}
	return json.MarshalIndent(r, "", "  ")
}

// levenshtein computes the edit distance between two strings; the analyzers
// use it to turn a dead path step into a "did you mean" hint.
func levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// suggest returns the best "did you mean" candidate for name among
// candidates: a case-insensitive match wins outright; otherwise the nearest
// candidate within an edit distance of 2. Empty means no good suggestion.
func suggest(name string, candidates []string) string {
	best, bestDist := "", 3
	for _, c := range candidates {
		if strings.EqualFold(c, name) {
			return c
		}
		if d := levenshtein(strings.ToLower(name), strings.ToLower(c)); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}
