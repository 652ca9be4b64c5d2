// Package integration defines the contract between the THALIA benchmark and
// an integration system under evaluation: the request/answer types, the
// canonical result schema, and the integration-effort model that feeds the
// paper's scoring function (Section 3.2).
package integration

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"thalia/internal/xmldom"
)

// ErrUnsupported is returned by a system that cannot answer a benchmark
// query without "large amounts of custom code" — the paper's phrase for the
// queries Cohera and IWIZ decline (4, 5 and 8).
var ErrUnsupported = errors.New("integration: query not supported without large amounts of custom code")

// Effort is the amount of programmatic integration work a system invested
// to answer one query. It mirrors the paper's per-query characterizations.
type Effort int

// Effort levels, in increasing order of custom code.
const (
	// EffortNone: handled entirely by declarative schema mappings.
	EffortNone Effort = iota
	// EffortSmall: a small amount of custom code (complexity low, 1 point).
	EffortSmall
	// EffortModerate: a moderate amount of custom code (complexity medium,
	// 2 points).
	EffortModerate
	// EffortLarge: large amounts of custom code; the paper's systems
	// decline such queries rather than answer them.
	EffortLarge
)

// String names the effort level as the paper does.
func (e Effort) String() string {
	switch e {
	case EffortNone:
		return "no code"
	case EffortSmall:
		return "small amount of code"
	case EffortModerate:
		return "moderate amount of code"
	case EffortLarge:
		return "large amount of code"
	default:
		return fmt.Sprintf("Effort(%d)", int(e))
	}
}

// Complexity converts an effort level to the scoring function's external-
// function complexity points: low 1, medium 2, high 3; no code scores 0.
func (e Effort) Complexity() int {
	switch e {
	case EffortSmall:
		return 1
	case EffortModerate:
		return 2
	case EffortLarge:
		return 3
	default:
		return 0
	}
}

// Request is one benchmark query posed to a system.
type Request struct {
	// QueryID is the benchmark query number, 1 through 12.
	QueryID int
	// XQuery is the benchmark query text (against the reference schema).
	XQuery string
	// Reference and Challenge are the two testbed source names involved.
	Reference string
	Challenge string

	// ctx carries per-call values — today the optional explain.Recorder —
	// through the legacy Answer signature, following the http.Request
	// Context/WithContext idiom. Systems model legacy engines, so the
	// context does not cancel them; the benchmark engine handles timeouts
	// from the outside.
	ctx context.Context
}

// Context returns the request's context, never nil: it defaults to
// context.Background().
func (r Request) Context() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

// WithContext returns a copy of the request carrying ctx.
func (r Request) WithContext(ctx context.Context) Request {
	r.ctx = ctx
	return r
}

// attemptKey is the private context key carrying the benchmark's attempt
// number (1-based) through a Request to fault-injection decorators.
type attemptKey struct{}

// WithAttempt returns ctx annotated with the attempt number n (1-based).
// The benchmark's resilience loop stamps every retry with its attempt
// number so a deterministic fault plan can key faults on (query, system,
// attempt) without the decorator keeping mutable per-cell state.
func WithAttempt(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, attemptKey{}, n)
}

// AttemptFromContext extracts the attempt number stamped by WithAttempt,
// or 0 when the call is not part of a resilience loop.
func AttemptFromContext(ctx context.Context) int {
	if ctx == nil {
		return 0
	}
	n, _ := ctx.Value(attemptKey{}).(int)
	return n
}

// transienter is the error-classification contract between a System (or a
// fault-injection decorator wrapping one) and the benchmark's resilience
// policy: an error that reports Transient() == true may succeed on retry.
type transienter interface{ Transient() bool }

// Transient reports whether err — anywhere along its Unwrap chain —
// declares itself transient via a `Transient() bool` method. Unknown
// errors are permanent: the resilience policy only retries what a source
// explicitly marks retryable (plus its own attempt timeouts).
func Transient(err error) bool {
	for err != nil {
		if t, ok := err.(transienter); ok && t.Transient() {
			return true
		}
		err = errors.Unwrap(err)
	}
	return false
}

// FunctionUse records one external/user-defined function a system needed.
type FunctionUse struct {
	Name string
	// Complexity is 1 (low), 2 (medium) or 3 (high).
	Complexity int
}

// Answer is a system's integrated result for one request, shaped into the
// benchmark's canonical result schema (see Row).
type Answer struct {
	// Rows are the integrated result rows.
	Rows []Row
	// Effort characterizes the programmatic work this query needed.
	Effort Effort
	// Functions lists the external functions invoked, for effort accounting.
	Functions []FunctionUse
}

// Row is one canonical result row: field name → value. The field vocabulary
// is fixed per query by the benchmark (e.g. "course", "title", "instructor");
// "source" names the testbed source the row came from.
type Row map[string]string

// Key renders a row canonically (sorted fields) for set comparison:
// "field=value" pairs joined by "|", with every `\`, `|` and `=` inside a
// field or value escaped by a `\`, so no value can forge a separator and
// two rows share a key only when they are equal.
func (r Row) Key() string {
	var buf [16]string // rows hold a handful of fields; more spill to the heap
	keys := buf[:0]
	size := 0
	for k, v := range r {
		keys = append(keys, k)
		size += len(k) + len(v) + 2
	}
	slices.Sort(keys)
	var b strings.Builder
	b.Grow(size)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte('|')
		}
		writeKeyPart(&b, k)
		b.WriteByte('=')
		writeKeyPart(&b, r[k])
	}
	return b.String()
}

// writeKeyPart writes s into a row key, escaping Key's separators.
func writeKeyPart(b *strings.Builder, s string) {
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\', '|', '=':
			b.WriteString(s[start:i])
			b.WriteByte('\\')
			start = i
		}
	}
	b.WriteString(s[start:])
}

// System is an integration system that can be evaluated on the benchmark.
//
// Concurrency contract: the benchmark's concurrent engine fans query×system
// cells out over a worker pool, so Name, Description and Answer MUST be
// safe for concurrent use by multiple goroutines — including multiple
// in-flight Answer calls on the same System value, possibly for the same
// query. Internal caches (materialized warehouses, shredded relations,
// shared testbed documents) must be built behind sync.Once or equivalent,
// and per-call state (effort ledgers, scratch buffers) must live in the
// call, not on the receiver. All four built-in systems (cohera, iwiz, ufmw,
// rewrite) honor this contract; the race-stress suite in
// internal/benchmark enforces it under the race detector.
type System interface {
	// Name identifies the system in scorecards.
	Name() string
	// Description summarizes the system's architecture.
	Description() string
	// Answer attempts one benchmark query. Returning ErrUnsupported means
	// the system declines the query (scores 0 points for it). Answer must
	// be safe for concurrent use and must treat the rows of the shared
	// testbed documents as read-only.
	Answer(req Request) (*Answer, error)
}

// RowsToXML renders answer rows as an integrated XML document in the shape
// the THALIA site's sample solutions use: <results q="N"><result
// source="..."><field>value</field>...</result></results>.
func RowsToXML(queryID int, rows []Row) *xmldom.Document {
	root := xmldom.NewElement("results").SetAttr("q", fmt.Sprintf("%d", queryID))
	for _, r := range rows {
		el := xmldom.NewElement("result")
		if src, ok := r["source"]; ok {
			el.SetAttr("source", src)
		}
		keys := make([]string, 0, len(r))
		for k := range r {
			if k != "source" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			el.Append(xmldom.NewElement(k).AppendText(r[k]))
		}
		root.Append(el)
	}
	return xmldom.NewDocument(root)
}

// RowsFromXML parses a document produced by RowsToXML back into rows.
func RowsFromXML(doc *xmldom.Document) ([]Row, error) {
	if doc == nil || doc.Root == nil || doc.Root.Name != "results" {
		return nil, fmt.Errorf("integration: not a results document")
	}
	var rows []Row
	for _, el := range doc.Root.ChildrenNamed("result") {
		r := Row{}
		if src, ok := el.Attr("source"); ok {
			r["source"] = src
		}
		for _, c := range el.ChildElements() {
			r[c.Name] = c.Text()
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// MatchRows compares two row multisets, ignoring order. It returns the rows
// missing from got and the rows in got that were not expected.
func MatchRows(want, got []Row) (missing, extra []Row) {
	counts := map[string]int{}
	byKey := map[string]Row{}
	for _, r := range want {
		k := r.Key()
		counts[k]++
		byKey[k] = r
	}
	for _, r := range got {
		k := r.Key()
		if counts[k] > 0 {
			counts[k]--
			continue
		}
		extra = append(extra, r)
	}
	// Sorted keys keep the missing-row diagnostics deterministic; map order
	// must not leak into benchmark reports.
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for i := 0; i < counts[k]; i++ {
			missing = append(missing, byKey[k])
		}
	}
	return missing, extra
}
