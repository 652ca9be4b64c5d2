package journal

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"thalia/internal/telemetry"
)

// The Recorder's typed appends replay to a verified projection carrying
// the recorder's run metadata and the build that produced it.
func TestRecorderEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec := &Recorder{W: w, RunID: "rec-1", Harness: "unit", FaultPlanDigest: "sha256:ab"}

	rec.RunStart([]string{"alpha"}, 2, 1, true, 9)
	cards := []*Card{{System: "alpha", Cells: []Cell{
		{System: "alpha", Query: 1, Supported: true, Correct: true},
		{System: "alpha", Query: 2, Supported: true, Correct: true},
	}}}
	for _, c := range cards[0].Cells {
		rec.CellStart(c.System, c.Query)
		rec.CellDone(c)
	}
	rec.Telemetry(telemetry.NewRegistry().Snapshot())
	rec.RunEnd(cards, 5*time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	p := Replay(events)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	s := p.Start
	if s.RunID != "rec-1" || s.Harness != "unit" || s.Seed != 9 ||
		s.FaultPlanDigest != "sha256:ab" || !s.Resilience || s.GoMaxProcs < 1 {
		t.Errorf("run_start = %+v", s)
	}
	if s.Version == "" || !strings.HasPrefix(s.GoVersion, "go") {
		t.Errorf("run_start missing build info: %+v", s)
	}
	if p.TelemetrySamples != 1 || p.End.ElapsedNS != (5*time.Millisecond).Nanoseconds() {
		t.Errorf("projection = %+v", p)
	}
}

func TestMarshalLineIsOneLine(t *testing.T) {
	e := Event{Seq: 3, Type: TypeCellStart, Cell: &Cell{System: "alpha", Query: 1}}
	line, err := e.MarshalLine()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsRune(line, '\n') {
		t.Errorf("MarshalLine emitted a newline: %q", line)
	}
	var back Event
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if back.Seq != 3 || back.Cell.System != "alpha" {
		t.Errorf("round trip = %+v", back)
	}
}
