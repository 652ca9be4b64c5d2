package website

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"thalia/internal/explain"
	"thalia/internal/telemetry"
)

func TestRequestIDHeader(t *testing.T) {
	h := New().Handler()
	rec1, _ := get(t, h, "/healthz")
	rec2, _ := get(t, h, "/healthz")
	id1, id2 := rec1.Header().Get("X-Request-ID"), rec2.Header().Get("X-Request-ID")
	if id1 == "" || id2 == "" {
		t.Fatalf("missing X-Request-ID headers: %q, %q", id1, id2)
	}
	if id1 == id2 {
		t.Errorf("request IDs must be unique, both %q", id1)
	}
}

// A panicking handler becomes a 500 plus a counter increment plus a log
// line — the connection survives and so does the process.
func TestPanicRecovery(t *testing.T) {
	s := New()
	var logBuf bytes.Buffer
	s.SetSlogger(slog.New(slog.NewJSONHandler(&logBuf, nil)))
	// Hang a panicking route onto a copy of the site's middleware stack.
	bomb := chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}), s.observe(), s.recoverPanics())

	req := httptest.NewRequest(http.MethodGet, "/catalogs", nil)
	rec := httptest.NewRecorder()
	bomb.ServeHTTP(rec, req) // must not propagate the panic
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	var panics int64
	for _, c := range s.metrics.Snapshot().Counters {
		if c.Name == MetricHTTPPanics {
			panics += c.Value
		}
	}
	if panics != 1 {
		t.Errorf("%s = %d, want 1", MetricHTTPPanics, panics)
	}
	recs := logRecords(t, &logBuf)
	if len(recs) != 2 || recs[0].Msg != "panic" || recs[0].Value != "kaboom" {
		t.Fatalf("panic not logged before the request record: %q", logBuf.String())
	}
	if id := rec.Header().Get("X-Request-ID"); recs[0].ID != id || recs[1].ID != id {
		t.Errorf("panic id %q and request id %q, want both %q", recs[0].ID, recs[1].ID, id)
	}
	// The 500 is still counted as a request on the route.
	found := false
	for _, c := range s.metrics.Snapshot().Counters {
		if c.Name == MetricHTTPRequests && c.Labels["code"] == "500" && c.Labels["route"] == "/catalogs" {
			found = c.Value == 1
		}
	}
	if !found {
		t.Error("panicked request missing from http_requests_total{code=500}")
	}
}

// logRecord is the subset of a site log record the tests assert on.
type logRecord struct {
	Msg    string `json:"msg"`
	ID     string `json:"id"`
	Method string `json:"method"`
	Path   string `json:"path"`
	Status int    `json:"status"`
	Value  string `json:"value"`
}

// logRecords decodes the JSON records a slog.JSONHandler wrote to buf,
// leaving buf intact for failure messages.
func logRecords(t *testing.T, buf *bytes.Buffer) []logRecord {
	t.Helper()
	var out []logRecord
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	for dec.More() {
		var r logRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("log is not JSON records: %v", err)
		}
		out = append(out, r)
	}
	return out
}

func TestAccessLogLine(t *testing.T) {
	s := New()
	var logBuf bytes.Buffer
	s.SetSlogger(slog.New(slog.NewJSONHandler(&logBuf, nil)))
	h := s.Handler()
	get(t, h, "/catalogs")
	get(t, h, "/nope")
	recs := logRecords(t, &logBuf)
	if len(recs) != 2 {
		t.Fatalf("access log records = %d, want 2: %q", len(recs), logBuf.String())
	}
	for i, want := range []logRecord{
		{Msg: "request", Method: "GET", Path: "/catalogs", Status: 200},
		{Msg: "request", Method: "GET", Path: "/nope", Status: 404},
	} {
		got := recs[i]
		if !strings.HasPrefix(got.ID, "r") {
			t.Errorf("record %d id = %q, want request-id prefix r", i, got.ID)
		}
		got.ID = ""
		if got != want {
			t.Errorf("record %d = %+v, want %+v", i, got, want)
		}
	}
}

func TestPerRouteMetrics(t *testing.T) {
	s := New()
	h := s.Handler()
	get(t, h, "/catalogs")
	get(t, h, "/catalogs/brown")
	get(t, h, "/catalogs/cmu")
	get(t, h, "/totally/unknown")

	snap := s.metrics.Snapshot()
	counts := map[string]int64{}
	for _, c := range snap.Counters {
		if c.Name == MetricHTTPRequests {
			counts[c.Labels["route"]+" "+c.Labels["code"]] += c.Value
		}
	}
	if counts["/catalogs 200"] != 1 {
		t.Errorf("catalogs count = %d, want 1", counts["/catalogs 200"])
	}
	if counts["/catalogs/:name 200"] != 2 {
		t.Errorf("parameterized route count = %d, want 2 (cardinality must not explode)", counts["/catalogs/:name 200"])
	}
	if counts["unmatched 404"] != 1 {
		t.Errorf("unmatched count = %d, want 1", counts["unmatched 404"])
	}
	histRoutes := map[string]int64{}
	for _, hs := range snap.Histograms {
		if hs.Name == MetricHTTPLatency {
			histRoutes[hs.Labels["route"]] = hs.Count
		}
	}
	if histRoutes["/catalogs/:name"] != 2 {
		t.Errorf("latency histogram count = %d, want 2", histRoutes["/catalogs/:name"])
	}
}

func TestMetricsEndpointJSONAndPrometheus(t *testing.T) {
	h := New().Handler()
	get(t, h, "/catalogs")

	rec, body := get(t, h, "/metrics")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("metrics: %d %s", rec.Code, rec.Header().Get("Content-Type"))
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	found := false
	for _, c := range snap.Counters {
		if c.Name == MetricHTTPRequests && c.Labels["route"] == "/catalogs" && c.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Error("metrics JSON missing the /catalogs request counter")
	}

	rec, body = get(t, h, "/metrics?format=prometheus")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Header().Get("Content-Type"), "text/plain") {
		t.Fatalf("prometheus metrics: %d %s", rec.Code, rec.Header().Get("Content-Type"))
	}
	for _, want := range []string{
		"# TYPE http_requests_total counter",
		`http_requests_total{code="200",route="/catalogs"}`,
		"# TYPE http_request_seconds histogram",
		`http_request_seconds_bucket{`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

func TestHealthz(t *testing.T) {
	h := New().Handler()
	rec, body := get(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	var v struct {
		Status     string  `json:"status"`
		Uptime     float64 `json:"uptime_seconds"`
		Goroutines int     `json:"goroutines"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.Status != "ok" || v.Uptime < 0 || v.Goroutines < 1 {
		t.Errorf("healthz = %+v", v)
	}
}

// debugTraces GETs /debug/traces with the given query and decodes it.
func debugTraces(t *testing.T, h http.Handler, query string) []explain.Trace {
	t.Helper()
	rec, body := get(t, h, "/debug/traces"+query)
	if rec.Code != http.StatusOK {
		t.Fatalf("traces%s: %d", query, rec.Code)
	}
	var v struct {
		Traces []explain.Trace `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	return v.Traces
}

// One ID per request: the X-Request-ID header, the access-log record and
// the /debug/traces entry all carry it, and the entry is an explain trace
// rooted at a request node.
func TestDebugTraces(t *testing.T) {
	s := New()
	var logBuf bytes.Buffer
	s.SetSlogger(slog.New(slog.NewJSONHandler(&logBuf, nil)))
	h := s.Handler()
	get(t, h, "/catalogs")
	rec, _ := get(t, h, "/queries?x=1")
	id := rec.Header().Get("X-Request-ID")
	if recs := logRecords(t, &logBuf); len(recs) != 2 || recs[1].ID != id {
		t.Fatalf("access log ids %+v, want the second to be %q", recs, id)
	}

	traces := debugTraces(t, h, "?n=1")
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1 (n=1)", len(traces))
	}
	got := traces[0]
	if got.TraceID != id || got.Spans != 1 || got.Root.Kind != explain.KindRequest ||
		got.Root.Name != "GET /queries" || got.Root.DurationNS <= 0 {
		t.Errorf("newest trace = %+v, want request %s GET /queries", got, id)
	}
	wantAttrs := []explain.Attr{explain.A("path", "/queries"), explain.A("status", "200")}
	if !reflect.DeepEqual(got.Root.Attrs, wantAttrs) {
		t.Errorf("attrs = %v, want %v", got.Root.Attrs, wantAttrs)
	}
	if traces := debugTraces(t, h, ""); len(traces) != 3 || traces[2].Root.Name != "GET /catalogs" {
		t.Errorf("default n: %d traces, want the 3 requests so far", len(traces))
	}
	for _, bad := range []string{"bogus", "0", "-2"} {
		if rec, _ := get(t, h, "/debug/traces?n="+bad); rec.Code != http.StatusBadRequest {
			t.Errorf("n=%s: %d, want 400", bad, rec.Code)
		}
	}
}

// The ring keeps the newest traceRingSize traces, newest first, and
// /debug/traces serves 50 unless asked for more.
func TestTraceRingOrderAndEviction(t *testing.T) {
	s := New()
	h := s.Handler()
	const total = traceRingSize + 5
	for i := 0; i < total; i++ {
		get(t, h, "/nope")
	}
	got := debugTraces(t, h, "?n=1000")
	if len(got) != traceRingSize {
		t.Fatalf("ring holds %d traces, want %d", len(got), traceRingSize)
	}
	// IDs are sequential, so newest first means descending IDs, and the
	// oldest kept request is the first one not evicted.
	for i, tr := range got {
		if want := fmt.Sprintf("r%08d", total-i); tr.TraceID != want {
			t.Fatalf("traces[%d] = %s, want %s", i, tr.TraceID, want)
		}
	}
	// The /debug/traces request itself was traced once it ended.
	got = debugTraces(t, h, "")
	if len(got) != 50 || got[0].Root.Name != "GET /debug/traces" {
		t.Errorf("default n: %d traces, newest %s; want 50, newest GET /debug/traces", len(got), got[0].Root.Name)
	}
}

// Requests served concurrently through Handler() while others read
// /debug/traces: every request gets its own ID, is counted once, and the
// ring stays full and consistent. CI runs this under -race -count=10.
func TestObserverConcurrent(t *testing.T) {
	s := New()
	h := s.Handler()
	const servers, readers, perServer = 8, 4, 40
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ids = map[string]bool{}
	)
	for g := 0; g < servers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perServer; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nope", nil))
				mu.Lock()
				ids[rec.Header().Get("X-Request-ID")] = true
				mu.Unlock()
			}
		}()
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perServer/4; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?n=200", nil))
				var v struct {
					Traces []explain.Trace `json:"traces"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || rec.Code != http.StatusOK {
					t.Errorf("concurrent /debug/traces: %d %v", rec.Code, err)
					return
				}
				for _, tr := range v.Traces {
					if tr.TraceID == "" || tr.Root.Kind != explain.KindRequest {
						t.Errorf("malformed trace under concurrency: %+v", tr)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if len(ids) != servers*perServer {
		t.Errorf("%d distinct request IDs, want %d", len(ids), servers*perServer)
	}
	var unmatched int64
	for _, c := range s.metrics.Snapshot().Counters {
		if c.Name == MetricHTTPRequests && c.Labels["route"] == "unmatched" {
			unmatched += c.Value
		}
	}
	if unmatched != servers*perServer {
		t.Errorf("unmatched requests counted %d, want %d", unmatched, servers*perServer)
	}
	got := debugTraces(t, h, "?n=1000")
	seen := map[string]bool{}
	for _, tr := range got {
		if seen[tr.TraceID] {
			t.Errorf("trace %s kept twice", tr.TraceID)
		}
		seen[tr.TraceID] = true
	}
	if len(got) != traceRingSize {
		t.Errorf("ring holds %d traces, want %d", len(got), traceRingSize)
	}
}

// The observer's per-request cost: one GET of an unmatched path through
// Handler() takes one ID, one writer wrapper and one trace node. Under Go
// 1.24 it allocates 25 times; three middlewares, each with its own wrapper
// and clock reads, plus a second trace ID, took 45.
func TestRequestAllocBudget(t *testing.T) {
	h := New().Handler()
	req := httptest.NewRequest(http.MethodGet, "/nope", nil)
	w := &discardWriter{header: http.Header{}}
	const budget = 36
	if got := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) }); got > budget {
		t.Errorf("one unmatched GET allocated %.0f times, budget %d", got, budget)
	}
}

func TestDebugExplain(t *testing.T) {
	h := New().Handler()
	rec, body := get(t, h, "/debug/explain?query=q3&system=cohera")
	if rec.Code != http.StatusOK {
		t.Fatalf("explain: %d\n%s", rec.Code, body)
	}
	var v struct {
		Query     int    `json:"query"`
		System    string `json:"system"`
		Supported bool   `json:"supported"`
		Digest    string `json:"digest"`
		Trace     struct {
			TraceID string `json:"trace_id"`
			Spans   int    `json:"spans"`
		} `json:"trace"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.Query != 3 || v.System != "Cohera" || !v.Supported || v.Trace.Spans == 0 {
		t.Errorf("unexpected explain payload: %+v", v)
	}
	// The cell trace carries this request's ID, the ID of its own
	// /debug/traces entry.
	id := rec.Header().Get("X-Request-ID")
	if id == "" || v.Trace.TraceID != id {
		t.Errorf("trace_id %q does not match X-Request-ID %q", v.Trace.TraceID, id)
	}
	if traces := debugTraces(t, h, "?n=1"); traces[0].TraceID != id || traces[0].Root.Name != "GET /debug/explain" {
		t.Errorf("request trace %+v, want %s GET /debug/explain", traces[0], id)
	}

	if rec, body := get(t, h, "/debug/explain?query=4&system=iwiz&format=text"); rec.Code != http.StatusOK ||
		!strings.Contains(body, "decline: 4GL cannot express the required mapping") {
		t.Errorf("text format: %d\n%s", rec.Code, body)
	}
	for _, bad := range []string{
		"/debug/explain",
		"/debug/explain?query=q13&system=cohera",
		"/debug/explain?query=q3&system=ghost",
	} {
		if rec, _ := get(t, h, bad); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", bad, rec.Code)
		}
	}
}

// Every route the benchmark's site workload browses answers 200 on a fresh
// site, through the full middleware stack.
func TestLoadRoutesAnswerOK(t *testing.T) {
	h := New().Handler()
	for _, route := range LoadRoutes {
		w := &discardWriter{header: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, route, nil))
		if w.status() != http.StatusOK {
			t.Errorf("GET %s: %d, want 200", route, w.status())
		}
	}
}

// discardWriter is a ResponseWriter that throws the body away, so a test
// can time or count a handler without buffering its page.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(b), nil
}

func (w *discardWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *discardWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}
