package website

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"thalia/internal/benchmark"
	"thalia/internal/faultline"
	"thalia/internal/integration"
	"thalia/internal/journal"
	"thalia/internal/telemetry"
)

// Benchmark runs as a service: POST /runs, and the form behind POST
// /run-benchmark, start a journaled evaluation in the background, and a
// fault-free run posts its cards to the Honor Roll; GET /runs lists runs
// from their replayed projections; GET /runs/{id} serves one projection
// with ETag revalidation; and GET /runs/{id}/events streams the journal
// live over SSE — every event the flight recorder appends, with heartbeats
// and Last-Event-ID resume. Each stream reads the run's own event backlog
// at its own pace, so a slow client lags but loses nothing, and the run
// never waits for it.

// defaultHeartbeat is the SSE keep-alive comment interval.
const defaultHeartbeat = 15 * time.Second

// runManager owns the site's benchmark runs: live ones being journaled and
// finished ones (including journals reloaded from disk at startup).
type runManager struct {
	mu        sync.Mutex
	dir       string // journal directory; "" keeps runs in memory only
	nextID    int
	runs      map[string]*run
	order     []string // creation order, for stable /runs listings
	heartbeat time.Duration
}

func newRunManager() *runManager {
	return &runManager{
		runs:      map[string]*run{},
		heartbeat: defaultHeartbeat,
	}
}

// run is one benchmark evaluation and its journal: the full event backlog
// (source of truth for every stream and resume) and the
// incrementally-applied projection (what /runs/{id} serves).
type run struct {
	id string

	mu       sync.Mutex
	events   []journal.Event
	proj     *journal.Projection
	finished bool
	// changed is closed, and replaced, whenever the run publishes an event
	// or finishes: a stream that has sent the whole backlog waits on it.
	changed chan struct{}
}

func newRun(id string) *run {
	return &run{
		id:      id,
		proj:    journal.NewProjection(),
		changed: make(chan struct{}),
	}
}

// publish is the journal writer's tap: called synchronously per appended
// event, it extends the backlog, advances the projection, and wakes every
// waiting stream.
func (r *run) publish(e journal.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
	r.proj.Apply(e)
	r.wake()
}

// finish marks the run over and wakes every stream for teardown.
func (r *run) finish() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return
	}
	r.finished = true
	r.wake()
}

// wake releases every stream waiting on the run. The caller holds r.mu.
func (r *run) wake() {
	close(r.changed)
	r.changed = make(chan struct{})
}

// since returns the backlog from index i on, whether the run has finished,
// and the channel the next change closes. The backlog is only ever
// appended to, so the returned slice stays valid without the lock.
func (r *run) since(i int) (events []journal.Event, finished bool, changed <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events[i:len(r.events):len(r.events)], r.finished, r.changed
}

// runEntry is one row of the GET /runs listing.
type runEntry struct {
	ID       string    `json:"id"`
	Complete bool      `json:"complete"`
	Cells    int       `json:"cells_done"`
	Started  time.Time `json:"started_at,omitempty"`
	Digest   string    `json:"digest,omitempty"`
	Href     string    `json:"href"`
}

// entry reads the run's listing row from its projection under the run
// lock, without building the full summary.
func (r *run) entry() runEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := runEntry{
		ID: r.id, Complete: r.finished && r.proj.Complete(),
		Cells: r.proj.CellsDone, Href: "/runs/" + r.id,
	}
	if r.proj.Start != nil {
		e.Started = r.proj.Start.StartedAt
	}
	if r.proj.End != nil {
		e.Digest = r.proj.End.Digest
	}
	return e
}

// lastSeq returns the highest sequence number the projection has applied.
func (r *run) lastSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.proj.LastSeq
}

// summary builds the projection's machine-readable summary under the run
// lock.
func (r *run) summary() journal.ReportSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.proj.Summary()
}

// report renders the projection's human report under the run lock.
func (r *run) report() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.proj.Report()
}

// SetJournalDir persists run journals under dir (one <id>.jsonl per run)
// and loads every journal already there as a finished run — the replayed
// projection is indistinguishable from one built live, so restarts keep
// run history. Call before the server starts handling requests.
func (s *Site) SetJournalDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("website: journal dir: %w", err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	rm := s.runs
	rm.mu.Lock()
	defer rm.mu.Unlock()
	rm.dir = dir
	for _, path := range paths {
		id := strings.TrimSuffix(filepath.Base(path), ".jsonl")
		if _, exists := rm.runs[id]; exists {
			continue
		}
		events, err := journal.ReadFile(path)
		if err != nil || len(events) == 0 {
			// A corrupt journal is skipped, not fatal: the other runs'
			// history is still worth serving.
			continue
		}
		r := newRun(id)
		r.events = events
		r.proj = journal.Replay(events)
		r.finished = true
		rm.runs[id] = r
		rm.order = append(rm.order, id)
		// Keep new IDs clear of reloaded ones.
		var n int
		if _, err := fmt.Sscanf(id, "run-%08d", &n); err == nil && n > rm.nextID {
			rm.nextID = n
		}
	}
	return nil
}

// runSpec is a parsed POST /runs request.
type runSpec struct {
	systems     []integration.System
	concurrency int
	chaos       bool
	seed        int64
}

// parseRunSpec reads a POST /runs request's parsed form.
func parseRunSpec(form url.Values) (runSpec, error) {
	spec := runSpec{}
	names := form["system"]
	if len(names) == 0 {
		names = []string{"cohera", "iwiz", "mediator", "declarative"}
	}
	// Each system at most once: a run builds one system, and twelve cells,
	// per name, so a repeated name would let a small request buy unbounded
	// work.
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			return spec, fmt.Errorf("system %q named twice", name)
		}
		seen[name] = true
		sys, ok := systemByName(name)
		if !ok {
			return spec, fmt.Errorf("unknown system %q (cohera|iwiz|mediator|declarative)", name)
		}
		spec.systems = append(spec.systems, sys)
	}
	if v := form.Get("concurrency"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > 64 {
			return spec, fmt.Errorf("concurrency must be 0-64")
		}
		spec.concurrency = n
	}
	if v := form.Get("chaos"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return spec, fmt.Errorf("chaos must be an integer seed")
		}
		spec.chaos = true
		spec.seed = seed
	}
	return spec, nil
}

// startRun allocates a run ID, opens its journal sink, registers the run,
// and launches the evaluation in the background. The handler returns
// immediately; progress streams at /runs/{id}/events. A run without
// injected faults adds its ranked cards to the Honor Roll.
func (s *Site) startRun(spec runSpec) (*run, error) {
	rm := s.runs
	rm.mu.Lock()
	id := fmt.Sprintf("run-%08d", rm.nextID+1)
	// The journal opens before the run is registered: a run whose journal
	// cannot be created would never finish, so it must never be listed.
	w := journal.NewWriter(io.Discard)
	if rm.dir != "" {
		var err error
		if w, err = journal.Create(filepath.Join(rm.dir, id+".jsonl")); err != nil {
			rm.mu.Unlock()
			return nil, err
		}
	}
	rm.nextID++
	r := newRun(id)
	rm.runs[id] = r
	rm.order = append(rm.order, id)
	rm.mu.Unlock()
	w.Tap(r.publish)

	rec := &journal.Recorder{W: w, RunID: id, Harness: "thalia-server"}
	systems := spec.systems
	runner := benchmark.NewRunner()
	runner.Concurrency = spec.concurrency
	runner.Telemetry = telemetry.NewRegistry() // per-run registry: journal snapshots carry run vitals, not site traffic
	runner.Journal = rec
	if spec.chaos {
		plan := faultline.StandardMix(spec.seed)
		rec.FaultPlanDigest = plan.Digest()
		runner.Resilience = benchmark.DefaultResilience(spec.seed)
		wrapped := make([]integration.System, len(systems))
		for i, sys := range systems {
			wrapped[i] = faultline.Wrap(sys, plan, runner.Telemetry)
		}
		systems = wrapped
	}

	go func() {
		defer r.finish()
		defer func() { _ = w.Close() }()
		cards, err := runner.EvaluateAll(systems...)
		if err != nil {
			s.logger.Error("benchmark run failed", "run", id, "err", err)
			return
		}
		// Injected faults degrade scores, so only a fault-free run ranks.
		// The entries land before finish, so a client that sees the run
		// finished also sees them.
		if !spec.chaos {
			s.mu.Lock()
			for _, card := range cards {
				s.roll.Add("built-in", card)
			}
			s.mu.Unlock()
		}
	}()
	return r, nil
}

// startFormRun parses a run request's form and starts the run. On a bad
// request or a failed start it writes the error response and returns nil.
func (s *Site) startFormRun(w http.ResponseWriter, r *http.Request) *run {
	if !parsePostForm(w, r) {
		return nil
	}
	spec, err := parseRunSpec(r.Form)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil
	}
	run, err := s.startRun(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil
	}
	return run
}

// lookup finds a run by ID.
func (rm *runManager) lookup(id string) (*run, bool) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	r, ok := rm.runs[id]
	return r, ok
}

// list returns runs in creation order.
func (rm *runManager) list() []*run {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	out := make([]*run, 0, len(rm.order))
	for _, id := range rm.order {
		out = append(out, rm.runs[id])
	}
	return out
}

// runsIndex serves GET /runs (the run listing, every entry built from its
// replayed projection) and POST /runs (start a run).
func (s *Site) runsIndex(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		run := s.startFormRun(w, r)
		if run == nil {
			return
		}
		w.Header().Set("Location", "/runs/"+run.id)
		w.WriteHeader(http.StatusAccepted)
		writeJSON(w, map[string]any{
			"id":     run.id,
			"href":   "/runs/" + run.id,
			"events": "/runs/" + run.id + "/events",
		})
	case http.MethodGet:
		runs := s.runs.list()
		entries := make([]runEntry, len(runs))
		for i, run := range runs {
			entries[i] = run.entry()
		}
		writeJSON(w, map[string]any{"runs": entries})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// runPage routes /runs/{id}, /runs/{id}/report and /runs/{id}/events.
func (s *Site) runPage(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/runs/")
	id, sub, _ := strings.Cut(rest, "/")
	run, ok := s.runs.lookup(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	switch sub {
	case "":
		s.runSummary(w, r, run)
	case "report":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, run.report())
	case "events":
		s.runEvents(w, r, run)
	default:
		http.NotFound(w, r)
	}
}

// runSummary serves one run's projection with ETag revalidation: the tag is
// the applied sequence number, so a poller pays for a full body only when
// the journal actually advanced. The tag is checked before any summary is
// built; a 200 takes its tag from the summary it sends, so the two agree.
func (s *Site) runSummary(w http.ResponseWriter, r *http.Request, run *run) {
	w.Header().Set("Cache-Control", "no-cache")
	if inm := r.Header.Get("If-None-Match"); inm != "" && inm == runETag(run.id, run.lastSeq()) {
		w.Header().Set("ETag", inm)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	sum := run.summary()
	w.Header().Set("ETag", runETag(run.id, sum.LastSeq))
	writeJSON(w, sum)
}

// runETag is the entity tag of a run's summary at sequence number seq.
func runETag(id string, seq uint64) string {
	return `"` + id + "-" + strconv.FormatUint(seq, 10) + `"`
}

// runEvents streams the run's journal as Server-Sent Events: each journal
// event is one SSE message whose id is the journal sequence number, so a
// dropped client resumes exactly where it left off via Last-Event-ID. The
// stream keeps its own index into the run's backlog: it sends what lies
// past the index, then waits for the run to change. So it delivers every
// event once, in order, however slowly the client reads, heartbeats while
// idle, and ends cleanly when the run finishes or the client disconnects.
func (s *Site) runEvents(w http.ResponseWriter, r *http.Request, run *run) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	var lastSeq uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "Last-Event-ID must be a sequence number", http.StatusBadRequest)
			return
		}
		lastSeq = n
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	heartbeat := time.NewTicker(s.runs.heartbeat)
	defer heartbeat.Stop()
	next := 0
	for {
		events, finished, changed := run.since(next)
		for _, e := range events {
			if e.Seq <= lastSeq {
				continue
			}
			if err := writeSSE(w, e); err != nil {
				return
			}
		}
		next += len(events)
		flusher.Flush()
		if finished {
			// Run over and its backlog sent: the client sees a clean
			// EOF, not a stall.
			return
		}
		select {
		case <-changed:
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE frames one journal event as an SSE message whose data is the
// event's canonical JSON line.
func writeSSE(w io.Writer, e journal.Event) error {
	data, err := e.MarshalLine()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
	return err
}
