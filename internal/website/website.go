// Package website implements the THALIA web site of Figure 4: browsing the
// University course catalogs in their original representation, viewing the
// extracted XML documents and corresponding schemas, downloading the three
// benchmark bundles ("Run Benchmark"), uploading scores, and the public
// Honor Roll.
package website

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thalia/internal/benchmark"
	"thalia/internal/buildinfo"
	"thalia/internal/catalog"
	"thalia/internal/cohera"
	"thalia/internal/hetero"
	"thalia/internal/integration"
	"thalia/internal/iwiz"
	"thalia/internal/rewrite"
	"thalia/internal/telemetry"
	"thalia/internal/ufmw"
)

// Site is the THALIA web application.
type Site struct {
	mu   sync.Mutex
	roll benchmark.HonorRoll

	metrics   *telemetry.Registry
	traces    traceRing
	logger    *slog.Logger
	nextReqID atomic.Int64
	started   time.Time
	shedGate  breakerGate
	runs      *runManager
}

// New returns a site with an empty honor roll, a fresh metrics registry,
// no request traces, and a discarded access log (use SetSlogger to keep
// it).
func New() *Site {
	return &Site{
		metrics: telemetry.NewRegistry(),
		logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
		started: time.Now(),
		runs:    newRunManager(),
	}
}

// Handler returns the site's HTTP handler: the Figure 4 routes plus the
// observability endpoints (/metrics, /healthz, /debug/traces), wrapped in
// the middleware stack — the request observer (request ID, access log,
// per-route metrics, request trace), load shedding (see SetBreaker), panic
// recovery (innermost, so a converted 500 is still counted, logged, and fed
// to the breaker).
func (s *Site) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.home)
	mux.HandleFunc("/catalogs", s.catalogs)
	mux.HandleFunc("/catalogs/", s.catalogPage)
	mux.HandleFunc("/browse", s.browse)
	mux.HandleFunc("/browse/", s.browseSource)
	mux.HandleFunc("/schema/", s.schemaSource)
	mux.HandleFunc("/queries", s.queries)
	mux.HandleFunc("/download/catalogs.zip", s.downloadCatalogs)
	mux.HandleFunc("/download/benchmark.zip", s.downloadBenchmark)
	mux.HandleFunc("/download/solutions.zip", s.downloadSolutions)
	mux.HandleFunc("/scores", s.scores)
	mux.HandleFunc("/run-benchmark", s.runBenchmark)
	mux.HandleFunc("/honor-roll", s.honorRoll)
	mux.HandleFunc("/runs", s.runsIndex)
	mux.HandleFunc("/runs/", s.runPage)
	mux.HandleFunc("/metrics", s.metricsPage)
	mux.HandleFunc("/healthz", s.healthz)
	mux.HandleFunc("/debug/traces", s.debugTraces)
	mux.HandleFunc("/debug/explain", s.debugExplain)
	return chain(mux,
		s.observe(),
		s.shedLoad(),
		s.recoverPanics(),
	)
}

// metricsPage serves the site registry: JSON by default, Prometheus text
// exposition with ?format=prometheus. Every scrape first samples the Go
// runtime's vitals (goroutines, heap, GC pause p99, GOMAXPROCS) into the
// registry, so the runtime_* series are always current.
func (s *Site) metricsPage(w http.ResponseWriter, r *http.Request) {
	telemetry.CaptureRuntime(s.metrics)
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.metrics.WritePrometheus(w); err != nil {
			s.logger.Warn("metrics exposition failed", "err", err)
		}
		return
	}
	writeJSON(w, s.metrics.Snapshot())
}

// healthz is the liveness probe: process up, with uptime, runtime vitals,
// and the build the process is running (module version, VCS revision).
func (s *Site) healthz(w http.ResponseWriter, r *http.Request) {
	bi := buildinfo.Read()
	writeJSON(w, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
		"goroutines":     runtime.NumGoroutine(),
		"version":        bi.Version,
		"revision":       bi.Revision,
		"go_version":     bi.GoVersion,
	})
}

// debugTraces serves the kept request traces, newest first: explain traces
// whose root is a request node. ?n=K limits the count (default 50).
func (s *Site) debugTraces(w http.ResponseWriter, r *http.Request) {
	n := 50
	if v := r.URL.Query().Get("n"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k < 1 {
			http.Error(w, "n must be a positive integer", http.StatusBadRequest)
			return
		}
		n = k
	}
	writeJSON(w, map[string]any{"traces": s.traces.recent(n)})
}

// debugExplain evaluates one query×system cell with an explain recorder
// attached and serves the operator/provenance trace: JSON by default,
// indented text plan with ?format=text. The trace carries the request's ID
// (the X-Request-ID the observer set), the ID of this request's own entry
// in /debug/traces.
func (s *Site) debugExplain(w http.ResponseWriter, r *http.Request) {
	qid, err := parseQueryID(r.URL.Query().Get("query"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sys, ok := systemByName(r.URL.Query().Get("system"))
	if !ok {
		http.Error(w, "unknown system (cohera|iwiz|mediator|declarative)", http.StatusBadRequest)
		return
	}
	runner := benchmark.NewRunner()
	res, tr, err := runner.Explain(r.Context(), sys, qid)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tr.TraceID = w.Header().Get(requestIDHeader)
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, tr.Text())
		return
	}
	writeJSON(w, map[string]any{
		"query":     res.QueryID,
		"system":    sys.Name(),
		"supported": res.Supported,
		"correct":   res.Correct,
		"digest":    tr.Digest(),
		"trace":     tr,
	})
}

// parseQueryID accepts a benchmark query identifier as "q3" or "3".
func parseQueryID(v string) (int, error) {
	v = strings.TrimPrefix(strings.TrimSpace(v), "q")
	id, err := strconv.Atoi(v)
	if err != nil || id < 1 || id > 12 {
		return 0, fmt.Errorf("query must be q1..q12")
	}
	return id, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writePage(w http.ResponseWriter, title, body string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<html><head><title>%s</title></head><body>
<table><tr><td valign="top" width="220">
<h3>THALIA</h3>
<p><i>Test Harness for the Assessment of Legacy information Integration Approaches</i></p>
<ul>
<li><a href="/catalogs">University Course Catalogs</a></li>
<li><a href="/browse">Browse Data and Schema</a></li>
<li><a href="/queries">Benchmark Queries</a></li>
<li><a href="/download/catalogs.zip">Run Benchmark: all catalogs (zip)</a></li>
<li><a href="/download/benchmark.zip">Run Benchmark: queries + test data (zip)</a></li>
<li><a href="/download/solutions.zip">Run Benchmark: sample solutions (zip)</a></li>
<li><a href="/run-benchmark">Run Benchmark: evaluate a built-in system</a></li>
<li><a href="/scores">Upload Your Scores</a></li>
<li><a href="/honor-roll">Honor Roll</a></li>
</ul>
</td><td valign="top">
%s
</td></tr></table>
</body></html>`, html.EscapeString(title), body)
}

func (s *Site) home(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	var b strings.Builder
	b.WriteString(`<h2>Welcome to THALIA</h2>
<p>THALIA provides researchers with a collection of downloadable data sources
representing University course catalogs, a set of twelve benchmark queries,
and a scoring function for ranking the performance of an integration
system.</p>`)
	fmt.Fprintf(&b, "<p>The testbed currently serves <b>%d</b> course catalogs.</p>", len(catalog.All()))
	b.WriteString("<h3>The twelve heterogeneities</h3><ol>")
	for _, c := range hetero.AllCases() {
		info, _ := hetero.Describe(c)
		fmt.Fprintf(&b, "<li><b>%s</b> (%s): %s</li>",
			html.EscapeString(info.Name), html.EscapeString(info.Group.String()), html.EscapeString(info.Description))
	}
	b.WriteString("</ol>")
	writePage(w, "THALIA", b.String())
}

func (s *Site) catalogs(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	b.WriteString("<h2>University Course Catalogs</h2><table border=\"1\"><tr><th>Source</th><th>University</th><th>Country</th><th>Style</th><th>Exhibits</th></tr>")
	for _, src := range catalog.All() {
		var ex []string
		for _, c := range src.Exhibits {
			ex = append(ex, strconv.Itoa(int(c)))
		}
		fmt.Fprintf(&b, `<tr><td><a href="/catalogs/%s">%s</a></td><td>%s</td><td>%s</td><td>%s</td><td>cases %s</td></tr>`,
			src.Name, src.Name, html.EscapeString(src.University), html.EscapeString(src.Country),
			html.EscapeString(src.Style), strings.Join(ex, ", "))
	}
	b.WriteString("</table>")
	writePage(w, "Catalogs", b.String())
}

// sourceFromPath extracts a source name from /prefix/<name> paths.
func sourceFromPath(path, prefix string) (*catalog.Source, error) {
	name := strings.TrimPrefix(path, prefix)
	name = strings.Trim(name, "/")
	return catalog.Get(name)
}

func (s *Site) catalogPage(w http.ResponseWriter, r *http.Request) {
	src, err := sourceFromPath(r.URL.Path, "/catalogs/")
	if err != nil {
		http.NotFound(w, r)
		return
	}
	// The cached original snapshot, served as-is (Figure 1 / Figure 2).
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, src.Page())
}

func (s *Site) browse(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	b.WriteString("<h2>Browse Data and Schema</h2><ul>")
	for _, src := range catalog.All() {
		fmt.Fprintf(&b, `<li>%s &mdash; <a href="/browse/%s">XML</a> | <a href="/schema/%s">Schema</a></li>`,
			html.EscapeString(src.University), src.Name, src.Name)
	}
	b.WriteString("</ul>")
	writePage(w, "Browse", b.String())
}

func (s *Site) browseSource(w http.ResponseWriter, r *http.Request) {
	src, err := sourceFromPath(r.URL.Path, "/browse/")
	if err != nil {
		http.NotFound(w, r)
		return
	}
	xml, err := src.XML()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	fmt.Fprint(w, xml)
}

func (s *Site) schemaSource(w http.ResponseWriter, r *http.Request) {
	src, err := sourceFromPath(r.URL.Path, "/schema/")
	if err != nil {
		http.NotFound(w, r)
		return
	}
	sch, err := src.Schema()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	fmt.Fprint(w, sch.Encode())
}

func (s *Site) queries(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	b.WriteString("<h2>The Twelve Benchmark Queries</h2>")
	for _, q := range benchmark.Queries() {
		fmt.Fprintf(&b, `<h3>Query %d &mdash; %s</h3>
<p><b>%s</b></p>
<p>Reference: %s; challenge: %s.</p>
<pre>%s</pre>
<p><i>Challenge: %s</i></p>`,
			q.ID, html.EscapeString(q.Case.Name()),
			html.EscapeString(q.Name), q.Reference, q.ChallengeSource,
			html.EscapeString(q.PaperXQuery), html.EscapeString(q.Challenge))
	}
	writePage(w, "Benchmark Queries", b.String())
}

// zipResponse streams a zip archive built by fill.
func zipResponse(w http.ResponseWriter, name string, fill func(*zip.Writer) error) {
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	if err := fill(zw); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if err := zw.Close(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/zip")
	w.Header().Set("Content-Disposition", `attachment; filename="`+name+`"`)
	_, _ = w.Write(buf.Bytes())
}

func addFile(zw *zip.Writer, name, content string) error {
	f, err := zw.Create(name)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte(content))
	return err
}

// downloadCatalogs is option (1): the XML and XML Schema files of all
// available course catalogs.
func (s *Site) downloadCatalogs(w http.ResponseWriter, r *http.Request) {
	zipResponse(w, "thalia-catalogs.zip", func(zw *zip.Writer) error {
		for _, src := range catalog.All() {
			xml, err := src.XML()
			if err != nil {
				return err
			}
			if err := addFile(zw, src.Name+".xml", xml); err != nil {
				return err
			}
			sch, err := src.Schema()
			if err != nil {
				return err
			}
			if err := addFile(zw, src.Name+".xsd", sch.Encode()); err != nil {
				return err
			}
		}
		return nil
	})
}

// downloadBenchmark is option (2): the twelve queries plus the test data
// sources they run against.
func (s *Site) downloadBenchmark(w http.ResponseWriter, r *http.Request) {
	zipResponse(w, "thalia-benchmark.zip", func(zw *zip.Writer) error {
		needed := map[string]bool{}
		for _, q := range benchmark.Queries() {
			text := fmt.Sprintf("(: Query %d — %s :)\n(: %s :)\n(: reference: %s, challenge: %s :)\n\n%s\n",
				q.ID, q.Case.Name(), q.Name, q.Reference, q.ChallengeSource, q.XQuery)
			if err := addFile(zw, fmt.Sprintf("queries/query%02d.xq", q.ID), text); err != nil {
				return err
			}
			needed[q.Reference] = true
			needed[q.ChallengeSource] = true
		}
		names := make([]string, 0, len(needed))
		for n := range needed {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			src, err := catalog.Get(n)
			if err != nil {
				return err
			}
			xml, err := src.XML()
			if err != nil {
				return err
			}
			if err := addFile(zw, "data/"+n+".xml", xml); err != nil {
				return err
			}
			sch, err := src.Schema()
			if err != nil {
				return err
			}
			if err := addFile(zw, "data/"+n+".xsd", sch.Encode()); err != nil {
				return err
			}
		}
		return nil
	})
}

// downloadSolutions is option (3): sample solutions to each benchmark query
// including a schema of the integrated result.
func (s *Site) downloadSolutions(w http.ResponseWriter, r *http.Request) {
	zipResponse(w, "thalia-solutions.zip", func(zw *zip.Writer) error {
		for _, q := range benchmark.Queries() {
			rows, err := q.Expected()
			if err != nil {
				return err
			}
			doc := integration.RowsToXML(q.ID, rows)
			if err := addFile(zw, fmt.Sprintf("solutions/query%02d.xml", q.ID), doc.Encode()); err != nil {
				return err
			}
		}
		return nil
	})
}

// Limits on what one request may make the site read or keep: a POST body
// (larger ones get 413), and a score upload's system and group names.
const (
	maxBodyBytes = 64 << 10
	maxNameBytes = 200
)

// parsePostForm parses r's form from a body of at most maxBodyBytes. It
// answers 413 for a larger body and 400 for a malformed one, and reports
// whether the handler may go on.
func parsePostForm(w http.ResponseWriter, r *http.Request) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := r.ParseForm(); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return false
	}
	return true
}

// scores accepts uploaded benchmark scores (POST system, group, correct,
// complexity) and shows the upload form on GET.
func (s *Site) scores(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		if !parsePostForm(w, r) {
			return
		}
		system := strings.TrimSpace(r.Form.Get("system"))
		group := strings.TrimSpace(r.Form.Get("group"))
		correct, err1 := strconv.Atoi(r.Form.Get("correct"))
		complexity, err2 := strconv.Atoi(r.Form.Get("complexity"))
		if system == "" || err1 != nil || err2 != nil || correct < 0 || correct > 12 || complexity < 0 {
			http.Error(w, "invalid score upload: need system, group, correct (0-12), complexity (>=0)", http.StatusBadRequest)
			return
		}
		if len(system) > maxNameBytes || len(group) > maxNameBytes {
			http.Error(w, fmt.Sprintf("invalid score upload: system and group are at most %d bytes", maxNameBytes), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		s.roll.AddEntry(benchmark.HonorRollEntry{
			System: system, Group: group, Correct: correct, Complexity: complexity,
		})
		s.mu.Unlock()
		http.Redirect(w, r, "/honor-roll", http.StatusSeeOther)
		return
	}
	writePage(w, "Upload Your Scores", `<h2>Upload Your Scores</h2>
<form method="POST" action="/scores">
System: <input name="system"><br>
Group: <input name="group"><br>
Correct answers (0-12): <input name="correct"><br>
Complexity score: <input name="complexity"><br>
<input type="submit" value="Upload">
</form>`)
}

// runBenchmark evaluates one of the built-in integration systems
// server-side and posts its score to the Honor Roll — the push-button
// version of the paper's "Run Benchmark" workflow.
func (s *Site) runBenchmark(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writePage(w, "Run Benchmark", `<h2>Run Benchmark</h2>
<form method="POST" action="/run-benchmark">
System:
<select name="system">
<option value="cohera">Cohera</option>
<option value="iwiz">IWIZ</option>
<option value="mediator">UF Full Mediator</option>
<option value="declarative">Declarative Mediator</option>
</select>
<input type="submit" value="Evaluate">
</form>`)
		return
	}
	if !parsePostForm(w, r) {
		return
	}
	sys, ok := systemByName(r.Form.Get("system"))
	if !ok {
		http.Error(w, "unknown system (cohera|iwiz|mediator|declarative)", http.StatusBadRequest)
		return
	}
	runner := benchmark.NewRunner()
	runner.Telemetry = s.metrics // server-side runs feed the same /metrics registry
	card, err := runner.Evaluate(sys)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.mu.Lock()
	s.roll.Add("built-in", card)
	s.mu.Unlock()
	writePage(w, "Benchmark Result", "<h2>Benchmark Result</h2><pre>"+html.EscapeString(card.Format())+"</pre>"+
		`<p><a href="/honor-roll">Honor Roll</a></p>`)
}

// systemByName constructs one of the built-in integration systems from its
// form/query-string name.
func systemByName(name string) (integration.System, bool) {
	switch name {
	case "cohera":
		return cohera.New(), true
	case "iwiz":
		return iwiz.New(), true
	case "mediator":
		return ufmw.New(), true
	case "declarative":
		return rewrite.NewSystem(), true
	}
	return nil, false
}

func (s *Site) honorRoll(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	entries := append([]benchmark.HonorRollEntry(nil), s.roll.Entries...)
	s.mu.Unlock()
	var b strings.Builder
	b.WriteString("<h2>Honor Roll</h2><table border=\"1\"><tr><th>Rank</th><th>System</th><th>Group</th><th>Correct</th><th>Complexity</th></tr>")
	for i, e := range entries {
		fmt.Fprintf(&b, "<tr><td>%d</td><td>%s</td><td>%s</td><td>%d/12</td><td>%d</td></tr>",
			i+1, html.EscapeString(e.System), html.EscapeString(e.Group), e.Correct, e.Complexity)
	}
	b.WriteString("</table>")
	writePage(w, "Honor Roll", b.String())
}
