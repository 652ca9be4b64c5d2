package main

import (
	"os"
	"path/filepath"
	"testing"

	"thalia/internal/tess"
)

func TestRunCommands(t *testing.T) {
	// Happy paths: each command must succeed end to end.
	ok := [][]string{
		{"sources"},
		{"show", "brown"},
		{"show", "brown", "--html"},
		{"schema", "eth"},
		{"queries"},
		{"solution", "8"},
		{"xq", `FOR $b in doc("umass.xml")/umass/Course WHERE $b/Number = "CS430" RETURN $b/Time`},
		{"hetero"},
		{"help"},
		{"bench", "--system", "iwiz"},
		{"bench", "--system=iwiz", "--parallel=2"},
		{"explain", "3", "cohera"},
		{"explain", "q8", "iwiz"},
		{"explain", "1", "declarative", "--json"},
	}
	for _, args := range ok {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	bad := [][]string{
		{"frobnicate"},
		{"show"},
		{"show", "ghost"},
		{"schema"},
		{"schema", "ghost"},
		{"solution"},
		{"solution", "x"},
		{"solution", "13"},
		{"xq"},
		{"xq", "FOR $b in"},
		{"bench", "--oops"},
		{"bench", "--system"},
		{"bench", "--system", "ghost"},
		{"bench", "--profile"},
		{"bench", "--explain-dir"},
		{"bench", "--faults"},
		{"bench", "--faults", "no-such-plan.json"},
		{"bench", "--seed"},
		{"bench", "--seed", "pi"},
		{"bench", "--retries"},
		{"bench", "--retries", "0"},
		{"bench", "--parallel", "0"},
		{"bench", "--timeout", "0s"},
		{"bench", "--scenario", "0"},
		{"bench", "--scenario", "5", "--scenario-size", "1"},
		{"bench", "--system=ghost"},
		{"bench", "--system", "iwiz", "stray"},
		{"explain"},
		{"explain", "3"},
		{"explain", "13", "cohera"},
		{"explain", "3", "ghost"},
		{"explain", "3", "cohera", "--oops"},
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}

func TestRunNoArgsShowsUsage(t *testing.T) {
	if err := run(nil); err != nil {
		t.Errorf("usage: %v", err)
	}
	if err := run([]string{"--help"}); err != nil {
		t.Errorf("--help: %v", err)
	}
}

// bench -h prints the flags and is not a failure.
func TestBenchHelpSucceeds(t *testing.T) {
	if err := run([]string{"bench", "-h"}); err != nil {
		t.Errorf("bench -h: %v", err)
	}
}

func TestExportAndValidate(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"export", dir}); err != nil {
		t.Fatalf("export: %v", err)
	}
	for _, rel := range []string{
		"sources/brown/original.html",
		"sources/brown/brown.xml",
		"sources/brown/brown.xsd",
		"sources/brown/wrapper.xml",
		"sources/eth/eth.xml",
		"queries/query01.xq",
		"queries/query12.xq",
		"solutions/query08.xml",
	} {
		if _, err := os.Stat(filepath.Join(dir, rel)); err != nil {
			t.Errorf("missing %s: %v", rel, err)
		}
	}
	// An exported wrapper config must reparse and re-extract the exported
	// original page.
	cfgText, err := os.ReadFile(filepath.Join(dir, "sources/umd/wrapper.xml"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := tess.ParseConfig(string(cfgText))
	if err != nil {
		t.Fatalf("exported config unparseable: %v", err)
	}
	page, err := os.ReadFile(filepath.Join(dir, "sources/umd/original.html"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tess.Extract(cfg, string(page)); err != nil {
		t.Errorf("exported config fails on exported page: %v", err)
	}

	if err := run([]string{"validate"}); err != nil {
		t.Errorf("validate: %v", err)
	}
	if err := run([]string{"export"}); err == nil {
		t.Error("export without directory should error")
	}
}

func TestBenchProfileAndExplainDir(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "prof")
	traces := filepath.Join(dir, "traces")
	if err := run([]string{"bench", "--system", "cohera", "--profile", prof, "--explain-dir", traces}); err != nil {
		t.Fatalf("bench: %v", err)
	}
	for _, rel := range []string{"cpu.pprof", "heap.pprof"} {
		if fi, err := os.Stat(filepath.Join(prof, rel)); err != nil || fi.Size() == 0 {
			t.Errorf("missing or empty profile %s: %v", rel, err)
		}
	}
	// Cohera declines queries 4, 5 and 8: exactly those cells fail and get
	// trace files.
	names, err := filepath.Glob(filepath.Join(traces, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Errorf("explain-dir holds %d traces (%v), want 3", len(names), names)
	}
}

// bench --faults evaluates under an injected fault plan: the standard mix
// by name, or a JSON plan file; --retries alone enables the resilience
// policy without faults.
func TestBenchChaosFlags(t *testing.T) {
	if err := run([]string{"bench", "--system", "iwiz", "--faults", "standard", "--seed", "7"}); err != nil {
		t.Fatalf("bench --faults standard: %v", err)
	}

	plan := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(plan, []byte(
		`{"seed":3,"rules":[{"system":"IWIZ","attempt":1,"kind":"transient","probability":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"bench", "--system", "iwiz", "--faults", plan, "--retries", "2"}); err != nil {
		t.Fatalf("bench --faults %s: %v", plan, err)
	}

	if err := run([]string{"bench", "--system", "iwiz", "--retries", "2"}); err != nil {
		t.Fatalf("bench --retries without faults: %v", err)
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"seed":1,"rules":[{"kind":"gremlins"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"bench", "--system", "iwiz", "--faults", bad}); err == nil {
		t.Fatal("invalid fault plan accepted")
	}
}

func TestDetectCommand(t *testing.T) {
	if err := run([]string{"detect", "cmu", "eth"}); err != nil {
		t.Errorf("detect: %v", err)
	}
	if err := run([]string{"detect", "cmu"}); err == nil {
		t.Error("detect with one arg should error")
	}
	if err := run([]string{"detect", "cmu", "ghost"}); err == nil {
		t.Error("detect unknown source should error")
	}
}
