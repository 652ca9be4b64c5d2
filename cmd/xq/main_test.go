package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestTestbedQuery(t *testing.T) {
	q := `FOR $b in doc("gatech.xml")/gatech/Course WHERE $b/Instructor = "Mark" RETURN $b/Title`
	if err := run("", true, false, false, []string{q}); err != nil {
		t.Errorf("testbed query: %v", err)
	}
	if err := run("", true, true, false, []string{`doc("cmu.xml")/cmu/Course[1]`}); err != nil {
		t.Errorf("xml output: %v", err)
	}
}

// The -explain flag reuses the evaluator's explain recorder: the query must
// still succeed with the trace enabled, and the trace goes to stderr so
// stdout results are unchanged.
func TestExplainFlag(t *testing.T) {
	q := `FOR $b in doc("gatech.xml")/gatech/Course WHERE $b/Instructor = "Mark" RETURN $b/Title`
	if err := run("", true, false, true, []string{q}); err != nil {
		t.Errorf("explain query: %v", err)
	}
	// A failing query still prints its partial trace before the error.
	if err := run("", true, false, true, []string{`doc("ghost.xml")/r`}); err == nil {
		t.Error("missing testbed document should error with -explain too")
	}
}

func TestFileQuery(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.xml")
	if err := os.WriteFile(dataPath, []byte(`<r><v>1</v><v>2</v></r>`), 0o644); err != nil {
		t.Fatal(err)
	}
	// doc() resolves against the filesystem without -testbed.
	q := `FOR $x in doc("` + dataPath + `")/r/v RETURN $x`
	if err := run("", false, false, false, []string{q}); err != nil {
		t.Errorf("file query: %v", err)
	}
	// Query from a file via -f.
	qPath := filepath.Join(dir, "query.xq")
	if err := os.WriteFile(qPath, []byte(q), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(qPath, false, false, false, nil); err != nil {
		t.Errorf("-f query: %v", err)
	}
}

func TestErrors(t *testing.T) {
	if err := run("", false, false, false, nil); err == nil {
		t.Error("no query should error")
	}
	if err := run("/nonexistent.xq", false, false, false, nil); err == nil {
		t.Error("missing query file should error")
	}
	if err := run("", true, false, false, []string{"FOR $b in"}); err == nil {
		t.Error("syntax error should surface")
	}
	if err := run("", false, false, false, []string{`doc("missing.xml")/r`}); err == nil {
		t.Error("missing document should error")
	}
}
