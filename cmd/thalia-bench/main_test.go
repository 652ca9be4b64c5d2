package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chaos writes a benchmark_chaos artifact that compare gates: the same
// artifact on both sides passes, and an injected 2x slowdown fails.
func TestChaosCmdAndCompare(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "chaos.json")
	var out strings.Builder
	if err := run([]string{"chaos", "-out", base, "-runs", "1", "-pool", "2", "-seed", "1"}, &out); err != nil {
		t.Fatalf("chaos: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "wrote "+base) {
		t.Errorf("missing artifact notice:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"compare", "-baseline", base, "-fresh", base}, &out); err != nil {
		t.Fatalf("identical chaos compare failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "within +30%") {
		t.Errorf("missing pass notice:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"compare", "-baseline", base, "-fresh", base, "-slowdown", "2.0"}, &out); err == nil {
		t.Fatalf("2x chaos slowdown passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("missing regression lines:\n%s", out.String())
	}
}

// plan prints one interpreter-vs-plan row per benchmark query plus a total,
// and errors out (rather than reporting) if the engines ever disagree.
func TestPlanCmdReportsAllQueries(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"plan", "-runs", "2"}, &out); err != nil {
		t.Fatalf("plan: %v\n%s", err, out.String())
	}
	for _, want := range []string{"q01", "q12", "total", "plan ns/op"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("plan report missing %q:\n%s", want, out.String())
		}
	}
}

// compare refuses to judge two artifacts of different suites, and any
// suite but chaos.
func TestCompareSuiteMismatch(t *testing.T) {
	dir := t.TempDir()
	chaos := filepath.Join(dir, "chaos.json")
	var out strings.Builder
	if err := run([]string{"chaos", "-out", chaos, "-runs", "1", "-pool", "2"}, &out); err != nil {
		t.Fatalf("chaos: %v\n%s", err, out.String())
	}
	engine := filepath.Join(dir, "engine.json")
	if err := os.WriteFile(engine, []byte(`{"suite":"benchmark_engine"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"compare", "-baseline", chaos, "-fresh", engine}, &out); err == nil ||
		!strings.Contains(err.Error(), "suite mismatch") {
		t.Fatalf("err = %v, want suite mismatch", err)
	}
	if err := run([]string{"compare", "-baseline", engine, "-fresh", engine}, &out); err == nil ||
		!strings.Contains(err.Error(), "unknown suite") {
		t.Fatalf("err = %v, want unknown suite", err)
	}
}

// -h prints a subcommand's usage and is not a failure.
func TestSubcommandHelpSucceeds(t *testing.T) {
	for _, sub := range []string{"chaos", "plan", "report", "compare"} {
		var out strings.Builder
		if err := run([]string{sub, "-h"}, &out); err != nil {
			t.Errorf("%s -h: %v", sub, err)
		}
	}
}
