package journal

import (
	"bytes"
	"os"
	"testing"
)

// FuzzJournalRead holds the reader and the projection to their contract on
// arbitrary bytes, since a journal on disk is outside input (the web site
// reloads every journal in its directory at start-up): ReadAll never
// panics, and on any stream it accepts, replaying the events and every
// rendering of the projection — Verify, Report, Summary, JSON, Degraded —
// never panic either.
func FuzzJournalRead(f *testing.F) {
	golden, err := os.ReadFile("testdata/golden.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add([]byte("{\"seq\":2,\"type\":\"cell_start\"}\n{\"seq\":1,\"type\":\"cell_start\"}\n"))
	f.Add([]byte("{\"seq\":1,\"type\":\"run_end\",\"run_end\":{}}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		p := Replay(events)
		_ = p.Verify()
		_ = p.Report()
		_ = p.Summary()
		_, _ = p.JSON()
		_ = p.Degraded()
	})
}
