package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thalia/internal/benchmark"
	"thalia/internal/journal"
	"thalia/internal/telemetry"
)

// writeJournal flight-records one evaluation of the built-in systems, as
// thalia bench --journal-dir does, and returns the journal's path.
func writeJournal(t *testing.T, dir, id string) string {
	t.Helper()
	path := filepath.Join(dir, id+".jsonl")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	runner := benchmark.NewRunner()
	runner.Concurrency = 2
	runner.Telemetry = telemetry.NewRegistry()
	runner.Journal = &journal.Recorder{W: w, RunID: id, Harness: "report test"}
	if _, err := runner.EvaluateAll(systems()...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// report replays a flight-recorded run to the exact digest its run-end
// event stamped: the acceptance loop CI runs on every journal it writes.
func TestEngineJournalAndReport(t *testing.T) {
	jpath := writeJournal(t, t.TempDir(), "engine-run")
	var out strings.Builder
	if err := run([]string{"report", "-require-complete", jpath}, &out); err != nil {
		t.Fatalf("report: %v\n%s", err, out.String())
	}
	for _, want := range []string{"engine-run", "report test", "Ranking", "recorded digest: sha256:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if err := run([]string{"report", "-json", jpath}, &out); err != nil {
		t.Fatalf("report -json: %v", err)
	}
	var sum journal.ReportSummary
	if err := json.Unmarshal([]byte(out.String()), &sum); err != nil {
		t.Fatalf("report -json output invalid: %v", err)
	}
	if !sum.Complete || sum.CellsDone != 48 {
		t.Errorf("summary = complete %v, %d cells; want complete, 48", sum.Complete, sum.CellsDone)
	}
	if sum.RecordedDigest == "" || sum.RecordedDigest != sum.ReplayedDigest {
		t.Errorf("replay does not reproduce the recorded digest: %q vs %q", sum.RecordedDigest, sum.ReplayedDigest)
	}
}

func TestReportRejectsBadJournals(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"report", filepath.Join(dir, "missing.jsonl")}, &out); err == nil {
		t.Error("report on a missing file must fail")
	}

	// An incomplete journal passes by default but fails -require-complete.
	partial := filepath.Join(dir, "partial.jsonl")
	w, err := journal.Create(partial)
	if err != nil {
		t.Fatal(err)
	}
	rec := &journal.Recorder{W: w, RunID: "partial", Harness: "test"}
	rec.RunStart([]string{"x"}, 12, 1, false)
	rec.CellStart("x", 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"report", partial}, &out); err != nil {
		t.Fatalf("report on incomplete journal: %v", err)
	}
	if !strings.Contains(out.String(), "INCOMPLETE") {
		t.Errorf("incomplete journal's report must say so:\n%s", out.String())
	}
	if err := run([]string{"report", "-require-complete", partial}, &out); err == nil {
		t.Error("-require-complete must fail on a journal without run_end")
	}

	// A tampered journal (cell event removed) must fail digest verification.
	data, err := os.ReadFile(writeJournal(t, dir, "tamper"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	// Drop one cell_done line; reindex seqs so only the digest can object.
	tampered := make([]string, 0, len(lines))
	dropped := false
	for _, line := range lines {
		if !dropped && strings.Contains(line, `"type":"cell_done"`) {
			dropped = true
			continue
		}
		tampered = append(tampered, line)
	}
	seq := 0
	for i, line := range tampered {
		if strings.TrimSpace(line) == "" {
			continue
		}
		seq++
		var e map[string]any
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		e["seq"] = seq
		raw, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		tampered[i] = string(raw) + "\n"
	}
	tpath := filepath.Join(dir, "tampered.jsonl")
	if err := os.WriteFile(tpath, []byte(strings.Join(tampered, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"report", tpath}, &out); err == nil {
		t.Error("report must reject a journal whose replay misses the recorded digest")
	}
}

func TestVersionFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "thalia-bench") {
		t.Errorf("version output = %q", out.String())
	}
}
