package website

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
	}), s.requestID(), s.accessLog(), s.httpMetrics(), s.recoverPanics())

	req := httptest.NewRequest(http.MethodGet, "/catalogs", nil)
	rec := httptest.NewRecorder()
	bomb.ServeHTTP(rec, req) // must not propagate the panic
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	var panics int64
	for _, c := range s.Metrics().Snapshot().Counters {
		if c.Name == MetricHTTPPanics {
			panics += c.Value
		}
	}
	if panics != 1 {
		t.Errorf("%s = %d, want 1", MetricHTTPPanics, panics)
	}
	if recs := logRecords(t, &logBuf); len(recs) != 2 || recs[0].Msg != "panic" || recs[0].Value != "kaboom" {
		t.Errorf("panic not logged: %q", logBuf.String())
	}
	// The 500 is still counted as a request on the route.
	found := false
	for _, c := range s.Metrics().Snapshot().Counters {
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

	snap := s.Metrics().Snapshot()
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

func TestDebugTraces(t *testing.T) {
	h := New().Handler()
	get(t, h, "/catalogs")
	get(t, h, "/queries")
	rec, body := get(t, h, "/debug/traces?n=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("traces: %d", rec.Code)
	}
	var v struct {
		Traces []telemetry.Trace `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Traces) != 1 {
		t.Fatalf("traces = %d, want 1 (n=1)", len(v.Traces))
	}
	if v.Traces[0].Name != "GET /queries" {
		t.Errorf("newest trace = %q, want GET /queries", v.Traces[0].Name)
	}
	if rec, _ := get(t, h, "/debug/traces?n=bogus"); rec.Code != http.StatusBadRequest {
		t.Errorf("bogus n: %d, want 400", rec.Code)
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
	// The explain trace links to the telemetry span: its trace ID is the
	// X-Trace-ID the metrics middleware stamped on this very response.
	if id := rec.Header().Get("X-Trace-ID"); id == "" || v.Trace.TraceID != id {
		t.Errorf("trace_id %q does not match X-Trace-ID %q", v.Trace.TraceID, id)
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

func TestMeasureServer(t *testing.T) {
	rep, err := MeasureServer(4, 14) // 2 round-robin laps over the 7 routes
	if err != nil {
		t.Fatal(err)
	}
	if rep.Suite != "website_server" {
		t.Errorf("suite = %q", rep.Suite)
	}
	if rep.TotalRequests != 4*14 {
		t.Errorf("total = %d, want 56", rep.TotalRequests)
	}
	if rep.Non200 != 0 {
		t.Errorf("non-200 responses = %d, want 0", rep.Non200)
	}
	if rep.ThroughputRPS <= 0 || rep.DurationNS <= 0 {
		t.Errorf("throughput/duration = %v/%v", rep.ThroughputRPS, rep.DurationNS)
	}
	if len(rep.Routes) != len(LoadRoutes) {
		t.Fatalf("routes = %d, want %d", len(rep.Routes), len(LoadRoutes))
	}
	for _, rt := range rep.Routes {
		if rt.Requests == 0 {
			t.Errorf("route %s has no requests", rt.Route)
		}
		if rt.P95MS < rt.P50MS {
			t.Errorf("route %s: p95 %v < p50 %v", rt.Route, rt.P95MS, rt.P50MS)
		}
	}
	dir := t.TempDir()
	path := dir + "/BENCH_server.json"
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	rec, _ := get(t, New().Handler(), "/healthz") // unrelated sanity ping
	if rec.Code != http.StatusOK {
		t.Error("healthz failed after load run")
	}
}
