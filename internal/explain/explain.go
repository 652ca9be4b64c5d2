// Package explain is the program's one span model. Its main use is a
// hierarchical, low-overhead trace of a single benchmark query evaluation:
// operator-level spans from the XQuery evaluator (FLWOR clauses, path
// steps, function calls, constructors) and provenance events from the
// integration systems (which mapping fired, which warehouse or SQL view
// answered, which transform was charged). The web site records each HTTP
// request as a one-node Trace of kind request, under the request's ID. An
// assembled Trace renders as an indented text plan, JSON, and a one-line
// digest — the diagnostic companion to the scorecard's pass/fail verdict.
//
// Instrumentation is injected through a context-carried *Recorder. The
// zero-recorder path is the contract that keeps the benchmark honest: every
// Recorder and Span method is safe on a nil receiver and returns
// immediately, and instrumentation sites guard their span-name construction
// behind a nil check, so with no recorder attached the evaluation makes no
// extra allocations and scorecards stay byte-identical (both are
// test-enforced in internal/benchmark).
//
// A Recorder is owned by the goroutine evaluating the query, but the
// benchmark engine may abandon a timed-out evaluation and read the trace
// while the system's goroutine is still running; every mutation therefore
// takes the recorder's mutex, and Trace seals the recorder so late writes
// from an abandoned goroutine are dropped instead of racing.
package explain

import (
	"context"
	"sync"
	"time"
)

// Kind classifies a span or event. The thalia-vet explain-kinds check
// enforces that every kind declared here is emitted by at least one
// instrumentation site outside this package — no dead vocabulary.
type Kind string

// The span/event vocabulary. Spans have duration (operators, system calls);
// events are instantaneous provenance marks attached to the open span.
const (
	// KindRequest is the root of a web site request's trace: one HTTP
	// request, from the site's observer.
	KindRequest Kind = "request"
	// KindEval is the root span of a cell's trace: one query evaluated
	// against one system. It is the cell's answer span: it times the
	// system's Answer call and carries the answer's row count.
	KindEval Kind = "eval"
	// KindFLWOR is one FLWOR expression in the XQuery evaluator.
	KindFLWOR Kind = "flwor"
	// KindClause is one for/let/where/order-by/return clause of a FLWOR.
	KindClause Kind = "clause"
	// KindPath is one path expression; KindStep is one of its steps.
	KindPath Kind = "path"
	KindStep Kind = "step"
	// KindCall is a function call (builtin or external).
	KindCall Kind = "call"
	// KindConstruct is a direct element constructor.
	KindConstruct Kind = "construct"
	// KindDoc marks a source document resolved by doc() or a mediator.
	KindDoc Kind = "doc"
	// KindMapping marks a schema mapping (view, wrapper spec, mapping
	// table) applied to a source.
	KindMapping Kind = "mapping"
	// KindTransform marks a charged value transform / external function.
	KindTransform Kind = "transform"
	// KindSQL is a federated SQL statement run by the Cohera model.
	KindSQL Kind = "sql"
	// KindWarehouse marks a materialized-warehouse read by the IWIZ model.
	KindWarehouse Kind = "warehouse"
	// KindDecline marks a system declining the query (ErrUnsupported).
	KindDecline Kind = "decline"
	// KindMerge marks per-source result sets merged into the final answer.
	KindMerge Kind = "merge"
	// KindAttempt is one resilience-policy attempt of a benchmark cell:
	// the retry loop opens one attempt span per Answer call.
	KindAttempt Kind = "attempt"
	// KindFault marks a deterministic fault injected by a faultline plan
	// (added latency, transient/permanent error, truncation, slow drip).
	KindFault Kind = "fault"
	// KindPlan is one compiled-plan evaluation; its attrs report how many
	// times the plan has been reused, making cache behavior visible.
	KindPlan Kind = "plan"
)

// Attr is one key=value annotation on a span or event.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A is shorthand for constructing an Attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Recorder accumulates the spans and events of one query evaluation. The
// zero value is not useful; construct with NewRecorder. A nil *Recorder is
// the disabled state: every method no-ops without allocating.
type Recorder struct {
	mu     sync.Mutex
	root   *Span
	cur    *Span
	sealed bool
	spans  int
	events int
}

// NewRecorder returns an empty recorder ready to record one evaluation.
func NewRecorder() *Recorder { return &Recorder{} }

// Span is one timed node of the trace. Spans form a stack: Begin opens a
// child of the currently open span, End closes it. A nil *Span (from a nil
// or sealed recorder) ignores every method.
type Span struct {
	rec      *Recorder
	kind     Kind
	name     string
	start    time.Time
	end      time.Time
	ended    bool
	event    bool
	attrs    []Attr
	rowsIn   int
	rowsOut  int
	hasRows  bool
	parent   *Span
	children []*Span
}

// Begin opens a new span as a child of the currently open span (or as the
// root). Safe on a nil receiver (returns nil) and after sealing.
func (r *Recorder) Begin(kind Kind, name string, attrs ...Attr) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sealed {
		return nil
	}
	s := &Span{rec: r, kind: kind, name: name, start: time.Now(), attrs: attrs, parent: r.cur}
	if r.cur != nil {
		r.cur.children = append(r.cur.children, s)
	} else if r.root == nil {
		r.root = s
	} else {
		// A second top-level span: attach it under the root so the trace
		// stays a single tree.
		s.parent = r.root
		r.root.children = append(r.root.children, s)
	}
	r.cur = s
	r.spans++
	return s
}

// Event records an instantaneous provenance mark under the open span. Safe
// on a nil receiver and after sealing.
func (r *Recorder) Event(kind Kind, name string, attrs ...Attr) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sealed {
		return
	}
	now := time.Now()
	s := &Span{rec: r, kind: kind, name: name, start: now, end: now, ended: true, event: true, attrs: attrs, parent: r.cur}
	if r.cur != nil {
		r.cur.children = append(r.cur.children, s)
	} else if r.root == nil {
		r.root = s
	} else {
		s.parent = r.root
		r.root.children = append(r.root.children, s)
	}
	r.events++
}

// Seal stops the recorder: subsequent Begin/Event/End calls are dropped.
// The benchmark engine seals before reading a trace whose evaluation
// goroutine may have been abandoned on timeout. Safe on a nil receiver.
func (r *Recorder) Seal() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sealNowLocked(time.Now())
	r.mu.Unlock()
}

// sealNowLocked marks the recorder sealed and closes any still-open spans
// at the seal time, so an abandoned evaluation yields a finite trace.
func (r *Recorder) sealNowLocked(now time.Time) {
	if r.sealed {
		return
	}
	r.sealed = true
	for s := r.cur; s != nil; s = s.parent {
		if !s.ended {
			s.end = now
			s.ended = true
		}
	}
	r.cur = nil
}

// End closes the span. Safe on a nil receiver; ending twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	if s.rec.sealed || s.ended {
		return
	}
	now := time.Now()
	s.end = now
	s.ended = true
	// If s is on the open stack, pop back to its parent, closing any
	// descendants an error path left open.
	onStack := false
	for cur := s.rec.cur; cur != nil; cur = cur.parent {
		if cur == s {
			onStack = true
			break
		}
	}
	if onStack {
		for cur := s.rec.cur; cur != s; cur = cur.parent {
			if !cur.ended {
				cur.end = now
				cur.ended = true
			}
		}
		s.rec.cur = s.parent
	}
}

// SetRows annotates the span with its row cardinality: in is the number of
// items/tuples entering the operator, out the number leaving. Negative
// values mean "unknown" and are omitted from renderings. Safe on nil.
func (s *Span) SetRows(in, out int) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	s.rowsIn, s.rowsOut, s.hasRows = in, out, true
	s.rec.mu.Unlock()
}

// With appends a key=value attribute and returns the span for chaining.
// Safe on a nil receiver.
func (s *Span) With(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.rec.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.rec.mu.Unlock()
	return s
}

// Trace is the assembled, immutable form of a recording, or of one web
// site request, which the site builds directly as a single node.
type Trace struct {
	// TraceID is the ID of the web site request the trace belongs to (its
	// X-Request-ID), when set.
	TraceID string `json:"trace_id,omitempty"`
	// Spans and Events count the recorded nodes of each flavor.
	Spans  int   `json:"spans"`
	Events int   `json:"events"`
	Root   *Node `json:"root,omitempty"`
}

// Node is one span or event of an assembled trace.
type Node struct {
	Kind Kind   `json:"kind"`
	Name string `json:"name"`
	// DurationNS is the span's wall-clock duration; 0 for events.
	DurationNS int64 `json:"duration_ns"`
	// Event marks an instantaneous provenance node.
	Event bool `json:"event,omitempty"`
	// RowsIn/RowsOut carry the operator cardinality when HasRows is set;
	// negative values mean that side was not measured.
	RowsIn   int     `json:"rows_in,omitempty"`
	RowsOut  int     `json:"rows_out,omitempty"`
	HasRows  bool    `json:"has_rows,omitempty"`
	Attrs    []Attr  `json:"attrs,omitempty"`
	Children []*Node `json:"children,omitempty"`
}

// Trace seals the recorder and assembles the recorded tree. Safe on a nil
// receiver (returns nil). The returned trace is a deep copy: it stays valid
// and race-free even if an abandoned goroutine still holds span pointers.
func (r *Recorder) Trace() *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sealNowLocked(time.Now())
	t := &Trace{Spans: r.spans, Events: r.events}
	if r.root != nil {
		t.Root = snapshot(r.root)
	}
	return t
}

// snapshot deep-copies a span subtree into exported nodes. Caller holds the
// recorder's mutex.
func snapshot(s *Span) *Node {
	n := &Node{
		Kind:    s.kind,
		Name:    s.name,
		Event:   s.event,
		RowsIn:  s.rowsIn,
		RowsOut: s.rowsOut,
		HasRows: s.hasRows,
	}
	if s.ended && !s.event {
		n.DurationNS = s.end.Sub(s.start).Nanoseconds()
	}
	if len(s.attrs) > 0 {
		n.Attrs = append([]Attr(nil), s.attrs...)
	}
	for _, c := range s.children {
		n.Children = append(n.Children, snapshot(c))
	}
	return n
}

// Empty reports whether the trace recorded nothing.
func (t *Trace) Empty() bool { return t == nil || t.Root == nil }

// LeafNanos sums the durations of the trace's leaf spans — the operators
// that did the actual work. A span whose children are all events counts as
// a leaf (a declined cell's eval span carries only a decline event but
// represents the whole call); events themselves contribute nothing. The
// benchmark's acceptance test checks this sum against the cell's measured
// evaluation latency.
func (t *Trace) LeafNanos() int64 {
	if t == nil || t.Root == nil {
		return 0
	}
	return leafNanos(t.Root)
}

func leafNanos(n *Node) int64 {
	if n.Event {
		return 0
	}
	childSpans := false
	total := int64(0)
	for _, c := range n.Children {
		if !c.Event {
			childSpans = true
		}
		total += leafNanos(c)
	}
	if !childSpans {
		return n.DurationNS
	}
	return total
}

// ctxKey is the private context key carrying a *Recorder.
type ctxKey struct{}

// NewContext returns ctx carrying rec. A nil rec returns ctx unchanged.
func NewContext(ctx context.Context, rec *Recorder) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, rec)
}

// FromContext extracts the recorder carried by ctx, or nil. A nil return is
// directly usable: every Recorder method no-ops on nil.
func FromContext(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	rec, _ := ctx.Value(ctxKey{}).(*Recorder)
	return rec
}
