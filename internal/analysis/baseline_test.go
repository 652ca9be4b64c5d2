package analysis

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func findingsWithIDs(t *testing.T, fs ...Finding) []Finding {
	t.Helper()
	rep := &Report{Findings: fs}
	rep.Finalize()
	return rep.Findings
}

// TestBaselineApply covers the ratchet's three buckets: fresh findings not
// in the baseline, suppressed findings the baseline accepts, and stale
// entries whose finding no longer fires.
func TestBaselineApply(t *testing.T) {
	old := findingsWithIDs(t,
		Finding{Check: "ctxflow", File: "a/a.go", Symbol: "a.F", Message: "fixed since"},
		Finding{Check: "mapflow", File: "b/b.go", Symbol: "b.G", Message: "still firing"},
	)
	base := NewBaseline(old)

	now := findingsWithIDs(t,
		Finding{Check: "mapflow", File: "b/b.go", Symbol: "b.G", Message: "still firing"},
		Finding{Check: "goleak", File: "c/c.go", Symbol: "c.H", Message: "brand new"},
	)
	fresh, suppressed, stale := base.Apply(now)
	if len(fresh) != 1 || fresh[0].Message != "brand new" {
		t.Errorf("fresh = %v, want the new goleak finding", fresh)
	}
	if len(suppressed) != 1 || suppressed[0].Message != "still firing" {
		t.Errorf("suppressed = %v, want the surviving mapflow finding", suppressed)
	}
	if len(stale) != 1 || stale[0].Message != "fixed since" {
		t.Errorf("stale = %v, want the fixed ctxflow entry", stale)
	}
}

// TestBaselineRoundTrip: write, load, re-marshal — byte-identical, which is
// what makes `-update-baseline` twice in a row a no-op.
func TestBaselineRoundTrip(t *testing.T) {
	fs := findingsWithIDs(t,
		Finding{Check: "ctxflow", File: "b/b.go", Symbol: "b.G", Message: "second by file order"},
		Finding{Check: "ctxflow", File: "a/a.go", Symbol: "a.F", Message: "first by file order"},
	)
	base := NewBaseline(fs)
	first, err := base.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(first, []byte("\n")) {
		t.Error("marshalled baseline lacks a trailing newline")
	}

	path := filepath.Join(t.TempDir(), "vet.baseline.json")
	if err := WriteBaseline(path, base); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	second, err := loaded.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("round trip is not byte-identical:\n%s\nvs\n%s", first, second)
	}
	if loaded.Findings[0].Message != "first by file order" {
		t.Errorf("entries not sorted by file: %+v", loaded.Findings)
	}
}

// TestLoadBaselineMissing: a repo without a baseline accepts no findings.
func TestLoadBaselineMissing(t *testing.T) {
	b, err := LoadBaseline(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Findings) != 0 {
		t.Errorf("missing baseline decodes to %d entries, want 0", len(b.Findings))
	}
}

// TestLoadBaselineVersionMismatch: a future-format baseline must fail
// loudly, not silently accept or reject everything.
func TestLoadBaselineVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vet.baseline.json")
	if err := os.WriteFile(path, []byte(`{"version":99,"findings":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(path); err == nil {
		t.Error("version 99 baseline loaded without error")
	}
}

// TestExitCode pins the severity-aware exit policy: stale entries and fresh
// errors always fail, fresh warnings fail only under -strict.
func TestExitCode(t *testing.T) {
	warn := Finding{Check: "goleak", Severity: SeverityWarning, Message: "w"}
	errf := Finding{Check: "ctxflow", Message: "e"}
	stale := BaselineEntry{ID: "ftv1-dead", Check: "ctxflow", Message: "gone"}
	cases := []struct {
		name   string
		fresh  []Finding
		stale  []BaselineEntry
		strict bool
		want   int
	}{
		{"clean", nil, nil, false, 0},
		{"clean strict", nil, nil, true, 0},
		{"fresh error", []Finding{errf}, nil, false, 1},
		{"fresh warning lax", []Finding{warn}, nil, false, 0},
		{"fresh warning strict", []Finding{warn}, nil, true, 1},
		{"stale only", nil, []BaselineEntry{stale}, false, 1},
	}
	for _, c := range cases {
		if got := ExitCode(c.fresh, c.stale, c.strict); got != c.want {
			t.Errorf("%s: ExitCode = %d, want %d", c.name, got, c.want)
		}
	}
}

// FuzzLoadBaseline: a baseline file is outside input. LoadBaseline must
// never panic, and a baseline it accepts must marshal to the canonical
// form and reload to the same entries, so `-update-baseline` is a no-op on
// anything it can read.
func FuzzLoadBaseline(f *testing.F) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "vet.baseline.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committed)
	f.Add([]byte(`{"version":1,"findings":[{"id":"vet-0123456789ab","check":"ctxflow","file":"a/a.go","symbol":"a.F","message":"context dropped"}]}`))
	f.Add([]byte(`{"version":2,"findings":[]}`))
	f.Add([]byte(`{"version":1,"findings":[{"id":"vet-01`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "vet.baseline.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := LoadBaseline(path)
		if err != nil {
			return
		}
		canon, err := b.Marshal()
		if err != nil {
			t.Fatalf("loaded baseline does not marshal: %v", err)
		}
		again := filepath.Join(dir, "again.json")
		if err := os.WriteFile(again, canon, 0o644); err != nil {
			t.Fatal(err)
		}
		reloaded, err := LoadBaseline(again)
		if err != nil {
			t.Fatalf("canonical form does not reload: %v\n%s", err, canon)
		}
		if !reflect.DeepEqual(reloaded.Findings, b.Findings) {
			t.Fatalf("reload changed the entries:\nloaded   %+v\nreloaded %+v", b.Findings, reloaded.Findings)
		}
	})
}
