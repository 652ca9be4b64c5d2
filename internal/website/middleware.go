package website

import (
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"thalia/internal/explain"
	"thalia/internal/telemetry"
)

// HTTP metric names, as they appear in /metrics.
const (
	// MetricHTTPRequests counts finished requests per route and status
	// code.
	MetricHTTPRequests = "http_requests_total"
	// MetricHTTPLatency is the per-route request latency histogram.
	MetricHTTPLatency = "http_request_seconds"
	// MetricHTTPPanics counts handler panics converted to 500s by the
	// recovery middleware.
	MetricHTTPPanics = "http_panics_total"
	// MetricHTTPInFlight gauges requests currently being served.
	MetricHTTPInFlight = "http_in_flight"
)

// middleware wraps a handler with one cross-cutting concern.
type middleware func(http.Handler) http.Handler

// chain applies middlewares so that the first listed is the outermost.
func chain(h http.Handler, mws ...middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// statusWriter captures the response status code (and whether a body write
// already implied 200) so the observer and the load shedder can see it.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer so SSE streaming (/runs/{id}/events)
// works through the middleware stack: every nesting level keeps the
// http.Flusher interface visible.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// status returns the effective status code (200 if the handler never wrote).
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// routeLabel normalizes a request path to a bounded set of route labels so
// per-route metric series stay low-cardinality: parameterized pages map to
// :name patterns, and anything outside the site's route table (scans, 404
// probes) collapses into "unmatched".
func routeLabel(path string) string {
	switch path {
	case "/", "/catalogs", "/browse", "/queries", "/scores", "/run-benchmark",
		"/honor-roll", "/runs", "/metrics", "/healthz", "/debug/traces", "/debug/explain",
		"/download/catalogs.zip", "/download/benchmark.zip", "/download/solutions.zip":
		return path
	}
	switch {
	case len(path) > len("/catalogs/") && path[:len("/catalogs/")] == "/catalogs/":
		return "/catalogs/:name"
	case len(path) > len("/browse/") && path[:len("/browse/")] == "/browse/":
		return "/browse/:name"
	case len(path) > len("/schema/") && path[:len("/schema/")] == "/schema/":
		return "/schema/:name"
	case strings.HasPrefix(path, "/runs/"):
		switch {
		case strings.HasSuffix(path, "/events"):
			return "/runs/:id/events"
		case strings.HasSuffix(path, "/report"):
			return "/runs/:id/report"
		}
		return "/runs/:id"
	}
	return "unmatched"
}

// requestIDHeader names the response header that carries a request's ID.
// It is spelled in canonical form, so setting and reading it need no
// canonicalized copy of the name.
const requestIDHeader = "X-Request-Id"

// observe is the site's one request observer, the outermost middleware. It
// gives each request a process-local sequential ID, sent as the
// X-Request-ID response header, and times the request once. When the
// handler returns it writes, under that ID, the access-log record, the
// per-route metrics and an explain trace kept for /debug/traces.
func (s *Site) observe() middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := fmt.Sprintf("r%08d", s.nextReqID.Add(1))
			w.Header().Set(requestIDHeader, id)
			inFlight := s.metrics.Gauge(MetricHTTPInFlight)
			inFlight.Inc()
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			d := time.Since(start)
			inFlight.Dec()
			route, status := routeLabel(r.URL.Path), sw.status()
			code := strconv.Itoa(status)
			s.logger.LogAttrs(r.Context(), slog.LevelInfo, logMsgRequest,
				slog.String("id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", status),
				slog.Duration("duration", d))
			s.metrics.Counter(MetricHTTPRequests,
				telemetry.L("route", route), telemetry.L("code", code)).Inc()
			s.metrics.Histogram(MetricHTTPLatency, telemetry.L("route", route)).ObserveDuration(d)
			s.traces.add(&explain.Trace{TraceID: id, Spans: 1, Root: &explain.Node{
				Kind:       explain.KindRequest,
				Name:       r.Method + " " + route,
				DurationNS: d.Nanoseconds(),
				Attrs:      []explain.Attr{explain.A("path", r.URL.Path), explain.A("status", code)},
			}})
		})
	}
}

// traceRingSize is how many request traces /debug/traces keeps.
const traceRingSize = 128

// traceRing keeps the site's most recent request traces in a fixed ring,
// so /debug/traces holds bounded memory however long the site runs.
type traceRing struct {
	mu    sync.Mutex
	buf   [traceRingSize]*explain.Trace
	added int // traces added so far; the next one goes to buf[added%traceRingSize]
}

func (t *traceRing) add(tr *explain.Trace) {
	t.mu.Lock()
	t.buf[t.added%traceRingSize] = tr
	t.added++
	t.mu.Unlock()
}

// recent returns up to n of the kept traces, newest first.
func (t *traceRing) recent(n int) []*explain.Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*explain.Trace, min(n, t.added, traceRingSize))
	for i := range out {
		out[i] = t.buf[(t.added-1-i)%traceRingSize]
	}
	return out
}

// recoverPanics converts a handler panic into a 500 response and a
// MetricHTTPPanics increment instead of killing the connection (and, under
// http.Server, leaving a one-line stack in the server log).
func (s *Site) recoverPanics() middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if v := recover(); v != nil {
					s.metrics.Counter(MetricHTTPPanics).Inc()
					s.logger.LogAttrs(r.Context(), slog.LevelError, logMsgPanic,
						slog.String("id", w.Header().Get(requestIDHeader)),
						slog.String("method", r.Method),
						slog.String("path", r.URL.Path),
						slog.Any("value", v))
					http.Error(w, "internal server error", http.StatusInternalServerError)
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// Metrics returns the site's metrics registry — shared by the HTTP
// middleware and the server-side benchmark runs, and exposed at /metrics.
func (s *Site) Metrics() *telemetry.Registry { return s.metrics }
