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

// Benchmark runs as a service: POST /runs starts a journaled evaluation in
// the background; GET /runs lists runs from their replayed projections;
// GET /runs/{id} serves one projection with ETag revalidation; and
// GET /runs/{id}/events streams the journal live over SSE — every event the
// flight recorder appends, with heartbeats, Last-Event-ID resume, and
// bounded per-subscriber buffers that degrade to an explicit gap event
// rather than stall the run.

const (
	// defaultSubscriberBuffer bounds one SSE subscriber's event backlog. A
	// consumer that falls further behind gets a gap event naming the seq
	// range it missed (it can re-fetch via Last-Event-ID); the run itself
	// never blocks on a slow reader.
	defaultSubscriberBuffer = 256
	// defaultHeartbeat is the SSE keep-alive comment interval.
	defaultHeartbeat = 15 * time.Second
)

// runManager owns the site's benchmark runs: live ones being journaled and
// finished ones (including journals reloaded from disk at startup).
type runManager struct {
	mu        sync.Mutex
	dir       string // journal directory; "" keeps runs in memory only
	nextID    int
	runs      map[string]*run
	order     []string // creation order, for stable /runs listings
	subBuffer int
	heartbeat time.Duration
}

func newRunManager() *runManager {
	return &runManager{
		runs:      map[string]*run{},
		subBuffer: defaultSubscriberBuffer,
		heartbeat: defaultHeartbeat,
	}
}

// run is one benchmark evaluation and its journal: the full event backlog
// (source of truth for resume), the incrementally-applied projection (what
// /runs/{id} serves), and the live SSE subscribers.
type run struct {
	id string

	mu       sync.Mutex
	events   []journal.Event
	proj     *journal.Projection
	subs     map[*runSubscriber]struct{}
	finished bool
	done     chan struct{} // closed once the run goroutine is finished
}

func newRun(id string) *run {
	return &run{
		id:   id,
		proj: journal.NewProjection(),
		subs: map[*runSubscriber]struct{}{},
		done: make(chan struct{}),
	}
}

// publish is the journal writer's tap: called synchronously per appended
// event, it extends the backlog, advances the projection, and offers the
// event to every subscriber.
func (r *run) publish(e journal.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
	r.proj.Apply(e)
	for sub := range r.subs {
		sub.offer(e)
	}
}

// finish marks the run over and wakes every subscriber for teardown.
func (r *run) finish() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return
	}
	r.finished = true
	close(r.done)
}

// subscribe atomically snapshots the backlog after lastSeq and registers a
// live subscriber — atomically, so no event can fall between the snapshot
// and the registration.
func (r *run) subscribe(lastSeq uint64, buffer int) (backlog []journal.Event, sub *runSubscriber) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.events {
		if e.Seq > lastSeq {
			backlog = append(backlog, e)
		}
	}
	sub = &runSubscriber{
		ch:   make(chan journal.Event, buffer),
		kick: make(chan struct{}, 1),
	}
	r.subs[sub] = struct{}{}
	return backlog, sub
}

func (r *run) unsubscribe(sub *runSubscriber) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.subs, sub)
}

// snapshot copies the fields a read endpoint needs under the run lock.
func (r *run) snapshot() (summary journal.ReportSummary, finished bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.proj.Summary(), r.finished
}

// report renders the projection's human report under the run lock.
func (r *run) report() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.proj.Report()
}

// runSubscriber is one SSE consumer's bounded mailbox. offer never blocks:
// when the channel is full the subscriber enters gap mode — events are
// counted, not queued — until the consumer takes the gap and resumes.
type runSubscriber struct {
	ch   chan journal.Event
	kick chan struct{}

	mu      sync.Mutex
	gapFrom uint64
	gapTo   uint64
}

func (s *runSubscriber) offer(e journal.Event) {
	// Offers for one subscriber are serialized by the run lock, so the
	// gap check, the send attempt, and the gap set cannot interleave
	// with another offer; the sends stay outside s.mu (they are
	// non-blocking either way, but a send under a lock is a smell the
	// lockdiscipline analyzer rightly rejects).
	s.mu.Lock()
	inGap := s.gapFrom != 0
	if inGap {
		// Already in gap mode: widen the gap instead of racing the
		// consumer for channel slots (which would reorder events).
		s.gapTo = e.Seq
	}
	s.mu.Unlock()
	if inGap {
		return
	}
	select {
	case s.ch <- e:
		return
	default:
	}
	s.mu.Lock()
	s.gapFrom, s.gapTo = e.Seq, e.Seq
	s.mu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// takeGap returns and clears the pending gap, nil if none.
func (s *runSubscriber) takeGap() *journal.Gap {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gapFrom == 0 {
		return nil
	}
	g := &journal.Gap{From: s.gapFrom, To: s.gapTo}
	s.gapFrom, s.gapTo = 0, 0
	return g
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
		close(r.done)
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
// immediately; progress streams at /runs/{id}/events.
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
		rec.Seed = spec.seed
		rec.FaultPlanDigest = plan.Digest()
		runner.Resilience = benchmark.DefaultResilience(spec.seed)
		wrapped := make([]integration.System, len(systems))
		for i, sys := range systems {
			wrapped[i] = faultline.Wrap(sys, plan, nil)
		}
		systems = wrapped
	}

	go func() {
		defer r.finish()
		defer func() { _ = w.Close() }()
		if _, err := runner.EvaluateAll(systems...); err != nil {
			s.logger.Error("benchmark run failed", "run", id, "err", err)
		}
	}()
	return r, nil
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
		if !parsePostForm(w, r) {
			return
		}
		spec, err := parseRunSpec(r.Form)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		run, err := s.startRun(spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
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
		type entry struct {
			ID       string    `json:"id"`
			Complete bool      `json:"complete"`
			Cells    int       `json:"cells_done"`
			Started  time.Time `json:"started_at,omitempty"`
			Digest   string    `json:"digest,omitempty"`
			Href     string    `json:"href"`
		}
		entries := []entry{}
		for _, run := range s.runs.list() {
			sum, finished := run.snapshot()
			e := entry{
				ID: run.id, Complete: finished && sum.Complete,
				Cells: sum.CellsDone, Digest: sum.RecordedDigest,
				Href: "/runs/" + run.id,
			}
			if sum.Start != nil {
				e.Started = sum.Start.StartedAt
			}
			entries = append(entries, e)
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
// the journal actually advanced.
func (s *Site) runSummary(w http.ResponseWriter, r *http.Request, run *run) {
	sum, _ := run.snapshot()
	etag := fmt.Sprintf(`"%s-%d"`, run.id, sum.LastSeq)
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "no-cache")
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeJSON(w, sum)
}

// runEvents streams the run's journal as Server-Sent Events: each journal
// event is one SSE message whose id is the journal sequence number, so a
// dropped client resumes exactly where it left off via Last-Event-ID. The
// stream heartbeats with comment lines, delivers a backlog-then-live
// handoff with no lost or duplicated events, and ends cleanly when the run
// finishes or the client disconnects.
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

	backlog, sub := run.subscribe(lastSeq, s.runs.subBuffer)
	defer run.unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	send := func(e journal.Event) bool {
		if err := writeSSE(w, e); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	for _, e := range backlog {
		if !send(e) {
			return
		}
	}
	flusher.Flush()

	// drainGap empties buffered events (they precede the gap) and then
	// reports the gap itself, keeping the stream ordered.
	drainGap := func() bool {
		for {
			select {
			case e := <-sub.ch:
				if !send(e) {
					return false
				}
			default:
				if g := sub.takeGap(); g != nil {
					return send(journal.Event{Seq: g.To, Type: journal.TypeGap, Gap: g})
				}
				return true
			}
		}
	}

	heartbeat := time.NewTicker(s.runs.heartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case e := <-sub.ch:
			if !send(e) {
				return
			}
		case <-sub.kick:
			if !drainGap() {
				return
			}
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-run.done:
			// Run over: flush whatever is still queued, then end the
			// stream — the client sees a clean EOF, not a stall.
			drainGap()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE frames one journal event as an SSE message. Gap events carry no
// journal payload beyond the missed range; everything else is the event's
// canonical JSON line.
func writeSSE(w io.Writer, e journal.Event) error {
	data, err := e.MarshalLine()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
	return err
}
