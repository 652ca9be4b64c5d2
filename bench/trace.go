package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"thalia/internal/integration"
	"thalia/internal/telemetry"
)

// The benchmark traces from outside the program: spans wrap the calls the
// benchmark makes into each layer's public functions, so a span's children
// are only the layer calls the benchmark itself can see. A nil *tracer is an
// untraced run; every method is a no-op on it.

// span is one timed call. Op is shared by all spans of one operation (a run,
// a cell, a request); Parent 0 marks a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Err    bool   `json:"err,omitempty"`
}

// tracer keeps every span of a traced run in memory, plus named numeric
// notes (first-call latencies, replay timings, counters) that are measured
// beside the spans rather than as spans.
type tracer struct {
	t0  time.Time
	ids atomic.Int64
	// reg is the engine telemetry registry attached to traced runners only.
	reg *telemetry.Registry

	mu    sync.Mutex
	spans []span
	notes map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), reg: telemetry.NewRegistry(), notes: map[string][]float64{}}
}

// spanRef is an open span; end records it.
type spanRef struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	op     string
	start  time.Time
}

// start opens a span. On a nil tracer it returns a no-op reference.
func (t *tracer) start(name string, parent int64, op string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, id: t.ids.Add(1), parent: parent, name: name, op: op, start: time.Now()}
}

// end closes the span, marking it failed when err is non-nil, and returns
// its duration.
func (s spanRef) end(err error) time.Duration {
	if s.t == nil {
		return 0
	}
	now := time.Now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{
		ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		Start: s.start.Sub(s.t.t0).Nanoseconds(), End: now.Sub(s.t.t0).Nanoseconds(),
		Err: err != nil,
	})
	s.t.mu.Unlock()
	return now.Sub(s.start)
}

// note appends values to a named note.
func (t *tracer) note(name string, vs ...float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.notes[name] = append(t.notes[name], vs...)
	t.mu.Unlock()
}

// sum returns the total of a note.
func (t *tracer) sum(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0.0
	for _, v := range t.notes[name] {
		total += v
	}
	return total
}

// values returns a copy of a note.
func (t *tracer) values(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.notes[name]...)
}

func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// traceDump is a tracer's serialized form: what a traced child process
// hands its parent, and what the run writes to disk.
type traceDump struct {
	Spans []span               `json:"spans"`
	Notes map[string][]float64 `json:"notes"`
}

func (t *tracer) dump() traceDump {
	t.mu.Lock()
	defer t.mu.Unlock()
	return traceDump{Spans: append([]span(nil), t.spans...), Notes: t.notes}
}

// adopt merges a child process's trace: its spans are renumbered into this
// tracer, shifted to start at the child's spawn time, and its roots hang
// under parent.
func (t *tracer) adopt(d traceDump, spawned time.Time, parent int64) {
	if t == nil {
		return
	}
	var top int64
	for _, s := range d.Spans {
		top = max(top, s.ID)
	}
	base := t.ids.Add(top) - top
	shift := spawned.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range d.Spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Start += shift
		s.End += shift
		t.spans = append(t.spans, s)
	}
	for k, vs := range d.Notes {
		t.notes[k] = append(t.notes[k], vs...)
	}
}

// layer is one span name's totals: calls, busy time, self time (busy minus
// the part of its interval its children cover) and failed calls.
type layer struct {
	Name   string
	Count  int64
	Busy   time.Duration
	Self   time.Duration
	Errors int64
}

// layers aggregates the spans by name, sorted by name.
func (t *tracer) layers() []layer {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layer{}
	for _, s := range spans {
		l := byName[s.Name]
		if l == nil {
			l = &layer{Name: s.Name}
			byName[s.Name] = l
		}
		l.Count++
		l.Busy += time.Duration(s.End - s.Start)
		l.Self += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
		if s.Err {
			l.Errors++
		}
	}
	out := make([]layer, 0, len(byName))
	for _, l := range byName {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of s's interval the union of kids covers.
func covered(s span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// checkTree reports the first span whose parent is missing or whose end
// precedes its start.
func (t *tracer) checkTree() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make(map[int64]bool, len(t.spans))
	for _, s := range t.spans {
		ids[s.ID] = true
	}
	for _, s := range t.spans {
		if s.Parent != 0 && !ids[s.Parent] {
			return fmt.Errorf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	return nil
}

// maxSpansWritten caps the trace file; aggregates always cover every span.
const maxSpansWritten = 20000

// write saves the trace as JSON: the first maxSpansWritten spans and every
// note.
func (t *tracer) write(path string) error {
	d := t.dump()
	if len(d.Spans) > maxSpansWritten {
		d.Spans = d.Spans[:maxSpansWritten]
	}
	raw, err := json.Marshal(d)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// tracedSystem wraps an integration.System with an answer.<key> span per
// Answer call. It keeps the wrapped system's name, so scorecards and their
// digests are those of the unwrapped system. It also notes the first call's
// latency (the lazy build a fresh instance pays), requests the instance had
// already answered (the only calls an answer cache could serve), and, when
// captured is non-nil, the rows of every answer for the match replay.
type tracedSystem struct {
	integration.System
	key    string
	tr     *tracer
	parent int64
	op     string

	calls    atomic.Int64
	mu       sync.Mutex
	seen     map[requestKey]bool
	captured map[int][]integration.Row
}

// requestKey is what integration.AnswerCache keys an answer by.
type requestKey struct {
	queryID              int
	reference, challenge string
}

func (s *tracedSystem) Answer(req integration.Request) (*integration.Answer, error) {
	first := s.calls.Add(1) == 1
	sp := s.tr.start("answer."+s.key, s.parent, fmt.Sprintf("%s/%s/q%d", s.op, s.key, req.QueryID))
	ans, err := s.System.Answer(req)
	var spanErr error
	switch {
	case errors.Is(err, integration.ErrUnsupported):
		s.tr.note("answer."+s.key+".declined", 1)
	case err != nil:
		spanErr = err
	}
	d := sp.end(spanErr)
	if first {
		s.tr.note("answer."+s.key+".first_ns", float64(d))
	}
	key := requestKey{req.QueryID, req.Reference, req.Challenge}
	s.mu.Lock()
	if s.seen[key] {
		s.tr.note("answer.repeat_requests", 1)
	}
	s.seen[key] = true
	if s.captured != nil && err == nil && ans != nil {
		s.captured[req.QueryID] = ans.Rows
	}
	s.mu.Unlock()
	return ans, err
}
