package explain

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeShape(t *testing.T) {
	rec := NewRecorder()
	root := rec.Begin(KindEval, "q01 Test", A("query", "q01"))
	mp := rec.Begin(KindMapping, "mapping gatech")
	rec.Event(KindDoc, "gatech.xml")
	step := rec.Begin(KindStep, "/Course")
	step.SetRows(10, 3)
	step.End()
	mp.End()
	root.End()

	tr := rec.Trace()
	if tr.Empty() {
		t.Fatal("trace should not be empty")
	}
	if tr.Spans != 3 || tr.Events != 1 {
		t.Errorf("spans=%d events=%d, want 3/1", tr.Spans, tr.Events)
	}
	if tr.Root.Kind != KindEval || len(tr.Root.Children) != 1 {
		t.Fatalf("root %+v: want eval with one child", tr.Root)
	}
	a := tr.Root.Children[0]
	if a.Kind != KindMapping || len(a.Children) != 2 {
		t.Fatalf("mapping node %+v: want doc event + step child", a)
	}
	if !a.Children[0].Event || a.Children[0].Kind != KindDoc {
		t.Errorf("first child should be the doc event, got %+v", a.Children[0])
	}
	st := a.Children[1]
	if !st.HasRows || st.RowsIn != 10 || st.RowsOut != 3 {
		t.Errorf("step rows = %+v, want in=10 out=3", st)
	}
	if len(tr.Root.Attrs) != 1 || tr.Root.Attrs[0].Key != "query" {
		t.Errorf("root attrs = %+v", tr.Root.Attrs)
	}
}

func TestEndOutOfOrderPopsStack(t *testing.T) {
	rec := NewRecorder()
	root := rec.Begin(KindEval, "root")
	rec.Begin(KindPath, "inner") // never ended: an error path bailed out
	root.End()
	tr := rec.Trace()
	if len(tr.Root.Children) != 1 {
		t.Fatalf("want inner child recorded, got %+v", tr.Root)
	}
	if tr.Root.Children[0].DurationNS < 0 {
		t.Errorf("inner span should have been closed at root End")
	}
	// After popping to the root's parent, a new span is re-rooted safely.
	if s := rec.Begin(KindPath, "late"); s != nil {
		t.Errorf("sealed recorder should refuse new spans")
	}
}

func TestSecondTopLevelSpanAttachesUnderRoot(t *testing.T) {
	rec := NewRecorder()
	first := rec.Begin(KindAttempt, "first")
	first.End()
	second := rec.Begin(KindAttempt, "second")
	second.End()
	tr := rec.Trace()
	if tr.Root.Name != "first" || len(tr.Root.Children) != 1 || tr.Root.Children[0].Name != "second" {
		t.Errorf("second top-level span should nest under the first: %+v", tr.Root)
	}
}

func TestSealDropsLateWrites(t *testing.T) {
	rec := NewRecorder()
	root := rec.Begin(KindEval, "root")
	rec.Seal()
	rec.Event(KindDoc, "late.xml")
	if s := rec.Begin(KindSQL, "late"); s != nil {
		t.Error("Begin after Seal should return nil")
	}
	root.End() // dropped, root was closed at seal time
	tr := rec.Trace()
	if tr.Events != 0 || tr.Spans != 1 {
		t.Errorf("late writes leaked into the trace: %+v", tr)
	}
}

// A timed-out evaluation is abandoned: its goroutine keeps writing while
// the engine seals and reads the trace. The recorder must tolerate that
// under the race detector.
func TestConcurrentSealAndWrite(t *testing.T) {
	rec := NewRecorder()
	rec.Begin(KindEval, "root")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			s := rec.Begin(KindStep, "step")
			s.SetRows(1, 1)
			rec.Event(KindDoc, "d.xml")
			s.End()
		}
	}()
	time.Sleep(time.Millisecond)
	tr := rec.Trace()
	wg.Wait()
	if tr.Empty() {
		t.Fatal("trace lost its root")
	}
}

func TestLeafNanos(t *testing.T) {
	rec := NewRecorder()
	root := rec.Begin(KindEval, "root")
	a := rec.Begin(KindPath, "a")
	time.Sleep(2 * time.Millisecond)
	a.End()
	b := rec.Begin(KindAttempt, "b") // only an event below: counts as a leaf
	rec.Event(KindDecline, "unsupported")
	time.Sleep(2 * time.Millisecond)
	b.End()
	root.End()
	tr := rec.Trace()
	sum := tr.LeafNanos()
	if sum <= 0 {
		t.Fatal("leaf sum should be positive")
	}
	if root := tr.Root.DurationNS; sum > root {
		t.Errorf("leaf sum %d exceeds root duration %d", sum, root)
	}
	// Both leaves slept ~2ms each; the sum must reflect both.
	if sum < (3 * time.Millisecond).Nanoseconds() {
		t.Errorf("leaf sum %d too small: event-only span b was not counted as a leaf", sum)
	}
}

func TestRenderings(t *testing.T) {
	rec := NewRecorder()
	root := rec.Begin(KindEval, "q03 Cohera", A("hetero", "Union Data Types"))
	sql := rec.Begin(KindSQL, "SELECT num FROM umd")
	sql.SetRows(-1, 4)
	sql.End()
	rec.Event(KindMapping, "view g_umd_sections")
	root.End()
	tr := rec.Trace()
	tr.TraceID = "r0000042"

	text := tr.Text()
	for _, want := range []string{"trace r0000042", "eval: q03 Cohera", "hetero=Union Data Types", "[out=4]", "* mapping: view g_umd_sections"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
	outline := tr.Outline()
	if strings.Contains(outline, "(0s)") || strings.Contains(outline, "µs)") || strings.Contains(outline, "ms)") {
		t.Errorf("Outline() must not contain durations:\n%s", outline)
	}
	dig := tr.Digest()
	if !strings.Contains(dig, "q03 Cohera") || !strings.Contains(dig, "spans=2") || !strings.Contains(dig, "events=1") {
		t.Errorf("Digest() = %q", dig)
	}
	raw, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if back.TraceID != "r0000042" || back.Root.Kind != KindEval {
		t.Errorf("JSON round-trip lost data: %+v", back)
	}
}

func TestEmptyTraceRenderings(t *testing.T) {
	tr := NewRecorder().Trace()
	if !tr.Empty() {
		t.Fatal("fresh recorder should produce an empty trace")
	}
	if tr.LeafNanos() != 0 {
		t.Error("empty trace LeafNanos should be 0")
	}
	if got := tr.Text(); got != "(empty trace)\n" {
		t.Errorf("Text() = %q", got)
	}
	var nilTrace *Trace
	if !nilTrace.Empty() || nilTrace.LeafNanos() != 0 || nilTrace.Digest() == "" {
		t.Error("nil trace methods must be safe")
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Error("background context should carry no recorder")
	}
	if FromContext(nil) != nil {
		t.Error("nil context should carry no recorder")
	}
	rec := NewRecorder()
	ctx := NewContext(context.Background(), rec)
	if FromContext(ctx) != rec {
		t.Error("recorder lost in context round-trip")
	}
	if got := NewContext(context.Background(), nil); FromContext(got) != nil {
		t.Error("NewContext(nil) must not store a recorder")
	}
}

// The zero-overhead contract: with no recorder attached, every explain
// primitive is a nil-receiver no-op that performs zero allocations. This is
// what lets the evaluator and all four systems leave their instrumentation
// permanently enabled.
func TestNilRecorderZeroAllocations(t *testing.T) {
	var rec *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		s := rec.Begin(KindEval, "root")
		s.SetRows(1, 1)
		s.With("k", "v")
		rec.Event(KindDoc, "d.xml")
		s.End()
		rec.Seal()
		_ = rec.Trace()
		_ = FromContext(context.Background())
	})
	if allocs != 0 {
		t.Errorf("nil recorder path allocated %.1f times per run, want 0", allocs)
	}
}

// Benchmark-asserted form of the same contract, for `go test -bench`.
func BenchmarkNilRecorderNoOp(b *testing.B) {
	var rec *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := rec.Begin(KindStep, "/Course")
		s.SetRows(1, 1)
		s.End()
	}
}
