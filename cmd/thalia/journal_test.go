package main

import (
	"path/filepath"
	"testing"

	"thalia/internal/faultline"
	"thalia/internal/journal"
)

// bench --journal-dir flight-records the evaluation; the journal replays
// to a verified projection with the CLI's configuration in run_start.
func TestBenchJournalDir(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"bench", "--system", "cohera", "--parallel", "2", "--journal-dir", dir}); err != nil {
		t.Fatalf("bench --journal-dir: %v", err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "run-*.jsonl"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("journal files = %v (err %v), want exactly one", paths, err)
	}
	events, err := journal.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	p := journal.Replay(events)
	if err := p.Verify(); err != nil {
		t.Fatalf("CLI journal does not verify: %v", err)
	}
	if p.Start.Harness != "thalia bench" || p.Start.Concurrency != 2 || len(p.Start.Systems) != 1 {
		t.Errorf("run_start misses CLI config: %+v", p.Start)
	}
	if p.CellsDone != 12 {
		t.Errorf("cells = %d, want 12", p.CellsDone)
	}
	if p.TelemetrySamples == 0 {
		t.Error("journaled CLI run carried no telemetry snapshots")
	}
}

// A chaos run journals its fault-plan provenance.
func TestBenchJournalDirChaos(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"bench", "--system", "iwiz", "--faults", "standard", "--seed", "5",
		"--journal-dir", dir}); err != nil {
		t.Fatalf("bench chaos --journal-dir: %v", err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "run-*.jsonl"))
	if len(paths) != 1 {
		t.Fatalf("journal files = %v, want one", paths)
	}
	events, err := journal.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	p := journal.Replay(events)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if p.Start.Seed != 5 || p.Start.FaultPlanDigest == "" || !p.Start.Resilience {
		t.Errorf("chaos provenance missing from run_start: %+v", p.Start)
	}
	var injected int64
	if p.Telemetry != nil {
		for _, c := range p.Telemetry.Counters {
			if c.Name == faultline.MetricInjected {
				injected += c.Value
			}
		}
	}
	if injected == 0 {
		t.Errorf("journaled telemetry has no %s series", faultline.MetricInjected)
	}
}

func TestVersionCommand(t *testing.T) {
	if err := run([]string{"version"}); err != nil {
		t.Fatalf("version: %v", err)
	}
}
