package journal

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// TestGoldenMutations is a mutation test of the digest contract over the
// golden journal. Changing any digest-covered field of any cell_done, or
// run_end's digest or cell count, must make Verify fail: a journal altered
// there no longer proves the scorecard. Changing a measured or wall-clock
// field must not: those are informational and left out of the digest.
func TestGoldenMutations(t *testing.T) {
	golden := func(t *testing.T) []Event {
		t.Helper()
		events, err := ReadFile(filepath.Join("testdata", "golden.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return events
	}
	if err := Replay(golden(t)).Verify(); err != nil {
		t.Fatalf("unmutated golden journal: %v", err)
	}

	cellFields := []struct {
		name   string
		mutate func(*Cell)
	}{
		{"system", func(c *Cell) { c.System += "x" }},
		{"query", func(c *Cell) { c.Query++ }},
		{"supported", func(c *Cell) { c.Supported = !c.Supported }},
		{"correct", func(c *Cell) { c.Correct = !c.Correct }},
		{"effort", func(c *Cell) { c.Effort += "x" }},
		{"complexity", func(c *Cell) { c.Complexity++ }},
		{"err", func(c *Cell) { c.Err += "x" }},
		{"degraded", func(c *Cell) { c.Degraded = !c.Degraded }},
		{"missing", func(c *Cell) { c.Missing++ }},
		{"extra", func(c *Cell) { c.Extra++ }},
	}
	attemptFields := []struct {
		name   string
		mutate func(*Attempt)
	}{
		{"n", func(a *Attempt) { a.N++ }},
		{"err", func(a *Attempt) { a.Err += "x" }},
		{"transient", func(a *Attempt) { a.Transient = !a.Transient }},
		{"backoff_ns", func(a *Attempt) { a.BackoffNS++ }},
		{"shed", func(a *Attempt) { a.Shed = !a.Shed }},
	}

	// mutant is one changed copy of the golden journal and whether Verify
	// must reject it.
	type mutant struct {
		name   string
		mutate func([]Event)
		fails  bool
	}
	var mutants []mutant
	for i, e := range golden(t) {
		i := i
		switch e.Type {
		case TypeRunStart:
			mutants = append(mutants, mutant{fmt.Sprintf("seq%d/started_at", e.Seq), func(ev []Event) {
				ev[i].RunStart.StartedAt = ev[i].RunStart.StartedAt.Add(time.Hour)
			}, false})
		case TypeCellDone:
			for _, f := range cellFields {
				mutate := f.mutate
				mutants = append(mutants, mutant{fmt.Sprintf("seq%d/%s", e.Seq, f.name), func(ev []Event) {
					mutate(ev[i].Cell)
				}, true})
			}
			for a := range e.Cell.Attempts {
				a := a
				for _, f := range attemptFields {
					mutate := f.mutate
					mutants = append(mutants, mutant{fmt.Sprintf("seq%d/attempts[%d].%s", e.Seq, a, f.name), func(ev []Event) {
						mutate(&ev[i].Cell.Attempts[a])
					}, true})
				}
			}
			mutants = append(mutants,
				mutant{fmt.Sprintf("seq%d/latency_ns", e.Seq), func(ev []Event) { ev[i].Cell.LatencyNS++ }, false},
				mutant{fmt.Sprintf("seq%d/explain_digest", e.Seq), func(ev []Event) { ev[i].Cell.ExplainDigest += "x" }, false})
		case TypeRunEnd:
			mutants = append(mutants,
				mutant{fmt.Sprintf("seq%d/digest", e.Seq), func(ev []Event) { ev[i].RunEnd.Digest += "0" }, true},
				mutant{fmt.Sprintf("seq%d/cells", e.Seq), func(ev []Event) { ev[i].RunEnd.Cells++ }, true},
				mutant{fmt.Sprintf("seq%d/elapsed_ns", e.Seq), func(ev []Event) { ev[i].RunEnd.ElapsedNS++ }, false})
		}
	}

	for _, m := range mutants {
		events := golden(t)
		m.mutate(events)
		err := Replay(events).Verify()
		switch {
		case m.fails && err == nil:
			t.Errorf("%s: mutated journal still verifies", m.name)
		case !m.fails && err != nil:
			t.Errorf("%s: an informational change fails Verify: %v", m.name, err)
		}
	}
	// One run_start, four cell_done events with five attempts between them,
	// and one run_end.
	if want := 1 + 4*(len(cellFields)+2) + 5*len(attemptFields) + 3; len(mutants) != want {
		t.Errorf("%d mutants, want %d: the golden journal changed shape", len(mutants), want)
	}
}
