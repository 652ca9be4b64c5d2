package website

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"thalia/internal/faultline"
	"thalia/internal/journal"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	id    uint64
	event string
	data  string
}

// readSSE parses an SSE stream until EOF or limit events.
func readSSE(t *testing.T, body *bufio.Reader, limit int) []sseEvent {
	t.Helper()
	var out []sseEvent
	cur := sseEvent{}
	for len(out) < limit {
		line, err := body.ReadString('\n')
		if err != nil {
			return out
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseUint(line[len("id: "):], 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			cur.id = n
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[len("data: "):]
		case strings.HasPrefix(line, ":"):
			// comment / heartbeat
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return out
}

// startTestRun POSTs /runs and returns the new run's ID.
func startTestRun(t *testing.T, ts *httptest.Server, form url.Values) string {
	t.Helper()
	resp, err := http.PostForm(ts.URL+"/runs", form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /runs: status %d", resp.StatusCode)
	}
	var body struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.ID == "" {
		t.Fatal("POST /runs returned no run ID")
	}
	return body.ID
}

// waitComplete polls /runs/{id} until the projection is complete.
func waitComplete(t *testing.T, ts *httptest.Server, id string) journal.ReportSummary {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var sum journal.ReportSummary
		err = json.NewDecoder(resp.Body).Decode(&sum)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sum.Complete {
			return sum
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("run never completed")
	return journal.ReportSummary{}
}

func TestRunsLifecycle(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := startTestRun(t, ts, url.Values{"system": {"cohera", "iwiz"}, "concurrency": {"2"}})
	sum := waitComplete(t, ts, id)
	if sum.CellsDone != 24 {
		t.Errorf("cells_done = %d, want 24 (2 systems × 12 queries)", sum.CellsDone)
	}
	if sum.RecordedDigest == "" || sum.RecordedDigest != sum.ReplayedDigest {
		t.Errorf("digests disagree: recorded %q, replayed %q", sum.RecordedDigest, sum.ReplayedDigest)
	}
	if len(sum.Rank) != 2 {
		t.Errorf("rank table has %d entries, want 2", len(sum.Rank))
	}

	// The listing shows the run, built from its projection.
	resp, err := http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Runs []struct {
			ID       string `json:"id"`
			Complete bool   `json:"complete"`
			Cells    int    `json:"cells_done"`
		} `json:"runs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.Runs) != 1 || listing.Runs[0].ID != id || !listing.Runs[0].Complete || listing.Runs[0].Cells != 24 {
		t.Errorf("listing wrong: %+v", listing.Runs)
	}

	// The human report renders from the same projection.
	resp, err = http.Get(ts.URL + "/runs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	report, _ := readAll(resp)
	for _, want := range []string{id, "thalia-server", "Ranking", "replayed digest: sha256:"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var b strings.Builder
	_, err := bufio.NewReader(resp.Body).WriteTo(&b)
	return b.String(), err
}

func TestRunSummaryETagRevalidation(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := startTestRun(t, ts, url.Values{"system": {"cohera"}})
	waitComplete(t, ts, id)

	resp, err := http.Get(ts.URL + "/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on run summary")
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("Cache-Control = %q, want no-cache", cc)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/runs/"+id, nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Errorf("matching If-None-Match: status %d, want 304", resp2.StatusCode)
	}
}

// The SSE stream must deliver every journal event exactly once, in order,
// and end cleanly when the run finishes.
func TestRunEventsStreamExactlyOnce(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := startTestRun(t, ts, url.Values{"system": {"cohera"}, "concurrency": {"2"}})

	resp, err := http.Get(ts.URL + "/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readSSE(t, bufio.NewReader(resp.Body), 10000)
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	for i, e := range events {
		if e.id != uint64(i+1) {
			t.Fatalf("event %d has seq %d: lost or duplicated events", i, e.id)
		}
	}
	if first, last := events[0], events[len(events)-1]; first.event != "run_start" || last.event != "run_end" {
		t.Errorf("stream spans %s..%s, want run_start..run_end", first.event, last.event)
	}
	// 1 run_start + 12×(cell_start+cell_done) + ≥1 telemetry? (none: no
	// Telemetry interval elapsed events guaranteed) + 1 run_end.
	if len(events) < 26 {
		t.Errorf("only %d events for a 12-cell run", len(events))
	}
}

// Last-Event-ID resume must replay exactly the suffix after the given
// sequence number — including from a journal that is only partially
// written because the run is still going (here: already finished, the
// degenerate case, plus a live mid-run resume below).
func TestRunEventsLastEventIDResume(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := startTestRun(t, ts, url.Values{"system": {"cohera"}})
	waitComplete(t, ts, id)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/runs/"+id+"/events", nil)
	req.Header.Set("Last-Event-ID", "5")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, bufio.NewReader(resp.Body), 10000)
	if len(events) == 0 {
		t.Fatal("no events on resume")
	}
	if events[0].id != 6 {
		t.Errorf("resume after seq 5 started at %d", events[0].id)
	}
	for i := 1; i < len(events); i++ {
		if events[i].id != events[i-1].id+1 {
			t.Fatalf("resume stream not contiguous at %d", events[i].id)
		}
	}
	if events[len(events)-1].event != "run_end" {
		t.Error("resume stream must run through run_end")
	}
}

// manualRun registers an empty run under id, for tests that publish its
// events by hand.
func manualRun(s *Site, id string) *run {
	r := newRun(id)
	s.runs.mu.Lock()
	s.runs.runs[id] = r
	s.runs.order = append(s.runs.order, id)
	s.runs.mu.Unlock()
	return r
}

// End-to-end slow consumer: a client that reads nothing until the run has
// finished still gets every event, once and in order. The stream reads the
// run's backlog at the client's pace, and the run never waits for it.
func TestRunEventsSlowConsumerEndToEnd(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	r := manualRun(s, "manual")

	resp, err := http.Get(ts.URL + "/runs/manual/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	const total = 1000
	for seq := uint64(1); seq <= total; seq++ {
		r.publish(journal.Event{Seq: seq, Type: journal.TypeCellStart})
	}
	r.finish()

	events := readSSE(t, bufio.NewReader(resp.Body), 10000)
	if len(events) != total {
		t.Fatalf("slow consumer got %d events, want all %d", len(events), total)
	}
	for i, e := range events {
		if e.id != uint64(i+1) || e.event != string(journal.TypeCellStart) {
			t.Fatalf("event %d is %s seq %d, want cell_start seq %d", i, e.event, e.id, i+1)
		}
	}
}

// A client disconnect mid-run ends the stream's handler; the run keeps
// going.
func TestRunEventsClientDisconnect(t *testing.T) {
	s := New()
	h := s.Handler()
	returned := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		h.ServeHTTP(w, req)
		close(returned)
	}))
	defer ts.Close()
	r := manualRun(s, "manual")
	r.publish(journal.Event{Seq: 1, Type: journal.TypeCellStart})

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/runs/manual/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// The first event arrives, so the handler is waiting for the next.
	if got := readSSE(t, bufio.NewReader(resp.Body), 1); len(got) != 1 || got[0].id != 1 {
		t.Fatalf("first event = %+v, want seq 1", got)
	}
	cancel()
	resp.Body.Close()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("the stream's handler did not return after the client disconnected")
	}
	// The run is unaffected: it can still publish and finish.
	r.publish(journal.Event{Seq: 2, Type: journal.TypeCellStart})
	r.finish()
}

// Heartbeats keep an idle stream alive between events.
func TestRunEventsHeartbeat(t *testing.T) {
	s := New()
	s.runs.heartbeat = 5 * time.Millisecond
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	r := manualRun(s, "manual")

	resp, err := http.Get(ts.URL + "/runs/manual/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream died waiting for heartbeat: %v", err)
		}
		if strings.HasPrefix(line, ": heartbeat") {
			r.finish()
			return
		}
	}
	t.Fatal("no heartbeat on an idle stream")
}

// With a journal directory set, runs persist to disk and a fresh site
// reloads them: the replayed projection serves /runs and /runs/{id}
// exactly like the live one did.
func TestJournalDirPersistAndReload(t *testing.T) {
	dir := t.TempDir()
	s := New()
	if err := s.SetJournalDir(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	id := startTestRun(t, ts, url.Values{"system": {"cohera"}})
	live := waitComplete(t, ts, id)
	ts.Close()

	if _, err := os.Stat(filepath.Join(dir, id+".jsonl")); err != nil {
		t.Fatalf("journal file not written: %v", err)
	}

	s2 := New()
	if err := s2.SetJournalDir(dir); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	reloaded := waitComplete(t, ts2, id)
	if reloaded.RecordedDigest != live.RecordedDigest || reloaded.CellsDone != live.CellsDone {
		t.Errorf("reloaded projection differs: %+v vs %+v", reloaded, live)
	}
	if reloaded.ReplayedDigest != reloaded.RecordedDigest {
		t.Errorf("reloaded journal fails digest check: %s vs %s", reloaded.ReplayedDigest, reloaded.RecordedDigest)
	}

	// New runs on the reloaded site get fresh IDs, not collisions.
	id2 := startTestRun(t, ts2, url.Values{"system": {"cohera"}})
	if id2 == id {
		t.Errorf("reloaded site reused run ID %s", id)
	}
}

// A run whose journal cannot be created is refused with 500 and leaves
// nothing behind: no run listed as incomplete forever, no event stream
// that never ends.
func TestRunJournalCreateFailureLeavesNoRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journals")
	s := New()
	if err := s.SetJournalDir(dir); err != nil {
		t.Fatal(err)
	}
	// Replace the directory with a file, so creating a journal fails.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.PostForm(ts.URL+"/runs", url.Values{"system": {"cohera"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("POST /runs with an unwritable journal dir: %d, want 500", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Runs []struct {
			ID string `json:"id"`
		} `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 0 {
		t.Errorf("GET /runs lists %+v after a refused run, want none", list.Runs)
	}
}

// A chaos run counts the faults it injects in its own registry, so the
// journal's telemetry snapshots carry them.
func TestChaosRunJournalsInjectedFaults(t *testing.T) {
	dir := t.TempDir()
	s := New()
	if err := s.SetJournalDir(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := startTestRun(t, ts, url.Values{"chaos": {"7"}})
	waitComplete(t, ts, id)

	events, err := journal.ReadFile(filepath.Join(dir, id+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	p := journal.Replay(events)
	if p.Telemetry == nil {
		t.Fatal("chaos run journaled no telemetry snapshot")
	}
	var injected int64
	for _, c := range p.Telemetry.Counters {
		if c.Name == faultline.MetricInjected {
			injected += c.Value
		}
	}
	if injected == 0 {
		t.Errorf("last telemetry snapshot has no %s series, want the run's injected faults", faultline.MetricInjected)
	}
}

// A partially written journal (no run_end — crashed or still running at
// copy time) reloads as an incomplete run, and Last-Event-ID resume from
// it replays exactly the events that made it to disk.
func TestReloadPartialJournalAndResume(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.Create(filepath.Join(dir, "run-crashed.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	rec := &journal.Recorder{W: w, RunID: "run-crashed", Harness: "test"}
	rec.RunStart([]string{"alpha"}, 12, 1, false)
	for q := 1; q <= 3; q++ {
		rec.CellStart("alpha", q)
		rec.CellDone(journal.Cell{System: "alpha", Query: q, Supported: true, Correct: true})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s := New()
	if err := s.SetJournalDir(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/runs/run-crashed")
	if err != nil {
		t.Fatal(err)
	}
	var sum journal.ReportSummary
	err = json.NewDecoder(resp.Body).Decode(&sum)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Complete || sum.CellsDone != 3 {
		t.Errorf("partial journal projected wrong: complete=%v cells=%d", sum.Complete, sum.CellsDone)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/runs/run-crashed/events", nil)
	req.Header.Set("Last-Event-ID", "3")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	events := readSSE(t, bufio.NewReader(resp2.Body), 100)
	if len(events) != 4 {
		t.Fatalf("resume from partial journal: %d events, want 4 (seqs 4-7)", len(events))
	}
	if events[0].id != 4 || events[len(events)-1].id != 7 {
		t.Errorf("resume range %d-%d, want 4-7", events[0].id, events[len(events)-1].id)
	}
}

// siteWithFinishedRuns returns a site that has loaded n finished runs of
// the four built-in systems from its journal directory.
func siteWithFinishedRuns(t *testing.T, n int) *Site {
	t.Helper()
	src := t.TempDir()
	s := New()
	if err := s.SetJournalDir(src); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	id := startTestRun(t, ts, url.Values{})
	waitComplete(t, ts, id)
	ts.Close()
	data, err := os.ReadFile(filepath.Join(src, id+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i := 1; i <= n; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run-%08d.jsonl", i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loaded := New()
	if err := loaded.SetJournalDir(dir); err != nil {
		t.Fatal(err)
	}
	return loaded
}

// GET /runs reads only the fields it lists from each run's projection:
// listing 20 finished 4-system runs allocates about 80 times. Building
// every run's full summary (ranked cards, a replayed digest) to list it
// took about 2650.
func TestRunsListingAllocBudget(t *testing.T) {
	h := siteWithFinishedRuns(t, 20).Handler()
	req := httptest.NewRequest(http.MethodGet, "/runs", nil)
	w := &discardWriter{header: http.Header{}}
	const budget = 300
	got := testing.AllocsPerRun(20, func() { h.ServeHTTP(w, req) })
	t.Logf("%.0f allocations", got)
	if w.status() != http.StatusOK {
		t.Fatalf("GET /runs: %d, want 200", w.status())
	}
	if got > budget {
		t.Errorf("listing 20 runs allocated %.0f times, budget %d", got, budget)
	}
}

// A revalidated GET /runs/{id} compares the tag before it builds a body:
// a 304 allocates about 25 times. Building the summary first took about
// 155.
func TestRunSummaryNotModifiedAllocBudget(t *testing.T) {
	h := siteWithFinishedRuns(t, 1).Handler()
	first := httptest.NewRecorder()
	h.ServeHTTP(first, httptest.NewRequest(http.MethodGet, "/runs/run-00000001", nil))
	req := httptest.NewRequest(http.MethodGet, "/runs/run-00000001", nil)
	req.Header.Set("If-None-Match", first.Header().Get("ETag"))
	w := &discardWriter{header: http.Header{}}
	const budget = 100
	got := testing.AllocsPerRun(50, func() { h.ServeHTTP(w, req) })
	t.Logf("%.0f allocations", got)
	if w.status() != http.StatusNotModified {
		t.Fatalf("revalidated GET: %d, want 304", w.status())
	}
	if got > budget {
		t.Errorf("a 304 allocated %.0f times, budget %d", got, budget)
	}
}

func TestRunsBadRequests(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"unknown system", func() (*http.Response, error) {
			return http.PostForm(ts.URL+"/runs", url.Values{"system": {"sirius"}})
		}, http.StatusBadRequest},
		{"repeated system", func() (*http.Response, error) {
			return http.PostForm(ts.URL+"/runs", url.Values{"system": {"cohera", "iwiz", "cohera"}})
		}, http.StatusBadRequest},
		{"bad concurrency", func() (*http.Response, error) {
			return http.PostForm(ts.URL+"/runs", url.Values{"concurrency": {"-3"}})
		}, http.StatusBadRequest},
		{"missing run", func() (*http.Response, error) {
			return http.Get(ts.URL + "/runs/run-nope")
		}, http.StatusNotFound},
		{"bad last-event-id", func() (*http.Response, error) {
			id := startTestRun(t, ts, url.Values{"system": {"cohera"}})
			req, _ := http.NewRequest(http.MethodGet, ts.URL+"/runs/"+id+"/events", nil)
			req.Header.Set("Last-Event-ID", "banana")
			return http.DefaultClient.Do(req)
		}, http.StatusBadRequest},
		{"delete method", func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs", nil)
			return http.DefaultClient.Do(req)
		}, http.StatusMethodNotAllowed},
		{"oversized run body", func() (*http.Response, error) {
			return http.PostForm(ts.URL+"/runs", url.Values{"system": {"cohera"}, "pad": {strings.Repeat("x", 100<<10)}})
		}, http.StatusRequestEntityTooLarge},
		{"oversized run-benchmark body", func() (*http.Response, error) {
			return http.PostForm(ts.URL+"/run-benchmark", url.Values{"system": {"iwiz"}, "pad": {strings.Repeat("x", 100<<10)}})
		}, http.StatusRequestEntityTooLarge},
	} {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}
