package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thalia/internal/benchmark"
	"thalia/internal/journal"
	"thalia/internal/telemetry"
	"thalia/internal/website"
)

// siteServer serves, over loopback, whichever website.Site is current: the
// site workload starts each round on a fresh one. When traced, it times
// every GET at the handler boundary, by route.
type siteServer struct {
	srv     *http.Server
	base    string
	served  chan error
	current atomic.Pointer[siteHandler]
	tr      *tracer
}

type siteHandler struct{ h http.Handler }

// openSite returns a new site that journals into dir, reloading the
// journals already there.
func openSite(dir string) (*website.Site, error) {
	site := website.New()
	if err := site.SetJournalDir(dir); err != nil {
		return nil, err
	}
	return site, nil
}

// startSite serves site and returns once /healthz answers 200.
func startSite(site *website.Site, tr *tracer) (*siteServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &siteServer{base: "http://" + ln.Addr().String(), served: make(chan error, 1), tr: tr}
	s.use(site)
	s.srv = &http.Server{Handler: s, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.served <- s.srv.Serve(ln) }()
	c := newClient()
	defer c.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("site never answered /healthz: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// use makes site answer every request from now on.
func (s *siteServer) use(site *website.Site) { s.current.Store(&siteHandler{site.Handler()}) }

func (s *siteServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := s.current.Load().h
	if s.tr == nil || r.Method != http.MethodGet {
		h.ServeHTTP(w, r) // POST /runs is timed by its client
		return
	}
	start := time.Now()
	h.ServeHTTP(w, r)
	s.tr.note("http.server_ms "+routeLabelOf(r.URL.Path), ms(time.Since(start)))
}

// close stops the server and waits for it.
func (s *siteServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench: site shutdown:", err)
	}
	<-s.served
}

// historyDir is where a site set-up child finds the journals it reloads.
func historyDir(cfg config) string { return filepath.Join(cfg.dir, "site-history") }

// writeHistory fills historyDir with the journals of one window's worth of
// runs, so the site's set-up is a restarted server reloading its history.
// Each journal is a copy of one journaled evaluation.
func writeHistory(cfg config) error {
	var buf bytes.Buffer
	w := journal.NewWriter(&buf)
	runner := benchmark.NewRunner()
	runner.Concurrency = concurrency
	runner.Telemetry = telemetry.NewRegistry()
	runner.Journal = &journal.Recorder{W: w, RunID: "history", Harness: "bench"}
	if _, err := runner.EvaluateAll(builtins()...); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	dir := historyDir(cfg)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := 1; i <= int(cfg.window.Seconds()*cfg.postRate); i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run-%08d.jsonl", i)), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// newClient returns a client holding at most one connection: each load
// stream of the site workload is one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}, Timeout: 60 * time.Second}
}

// runPlaceholder in the route mix stands for one finished run's /runs/{id}.
const runPlaceholder = "/runs/{id}"

// routeSlugs names the site's GET routes in metric names, keyed by route
// label.
var routeSlugs = []struct{ label, slug string }{
	{"/", "home"}, {"/catalogs", "catalogs"}, {"/catalogs/:name", "catalog"},
	{"/browse/:name", "browse"}, {"/schema/:name", "schema"}, {"/queries", "queries"},
	{"/healthz", "healthz"}, {"/runs", "runs"}, {"/runs/:id", "run"},
	{"/runs/:id/events", "events"},
}

// getSample is one timed GET.
type getSample struct {
	due               time.Duration // offset of the due time from the window start
	fromDue, fromSend float64       // ms
	lag               float64       // ms the send was late
	label             string
	ok                bool
}

// runSample is one POST /runs followed by its event stream.
type runSample struct {
	due     time.Duration
	journal string  // the run's journal file
	fromDue float64 // ms, POST to the end of the event stream
	post    float64 // ms, the POST alone
	lag     float64
	ok      bool
}

// measureSite drives the site open-loop on a fixed seeded schedule from two
// connections: GETs at cfg.getRate, and POST /runs at cfg.postRate each
// followed by its event stream read to the end. Every request is timed from
// when it was due, so a stall also delays, and is charged to, the requests
// behind it.
//
// Each round is served by a fresh site journaling into its own directory.
// GET /runs lists every run a site holds, and its cost grows with them, so
// one site for the whole window would make every round dearer than the last
// and the workload's cost a function of the window's length. A fresh site
// per round holds at most one round's runs.
func measureSite(cfg config, tr *tracer) (*measurement, error) {
	ref, err := referenceDigest()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dir, "journals-")
	if err != nil {
		return nil, err
	}
	defer removeAll(dir)
	rounds := make([]round, cfg.rounds())
	sites := make([]*website.Site, len(rounds))
	dirs := make([]string, len(rounds))
	for k := range sites {
		dirs[k] = filepath.Join(dir, fmt.Sprintf("round-%03d", k))
		if sites[k], err = openSite(dirs[k]); err != nil {
			return nil, err
		}
	}
	s, err := startSite(sites[0], tr)
	if err != nil {
		return nil, err
	}
	defer s.close()

	rt := startRuntimeWatch(tr)
	l := &siteLoad{cfg: cfg, tr: tr, base: s.base, dirs: dirs, t0: time.Now().Add(10 * time.Millisecond)}
	var (
		wg   sync.WaitGroup
		gets []getSample
		runs []runSample
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		gets = l.getLoop()
	}()
	go func() {
		defer wg.Done()
		runs = l.postLoop(ref)
	}()

	// The coordinator hands each round its site and samples process cost at
	// round ends.
	cpu, alloc := processCPU(), totalAlloc()
	for k := range rounds {
		start, end := time.Duration(k)*roundLength, l.roundEnd(k)
		if k < len(rounds)-1 {
			sleepUntil(l.t0.Add(end))
			l.nextSite(s, sites[k+1], k+1)
			sites[k] = nil // its runs are the garbage of the next round
		} else {
			wg.Wait()
		}
		c, a := processCPU(), totalAlloc()
		rounds[k].procCPU, rounds[k].procAlloc = c-cpu, a-alloc
		rounds[k].wall = end - start
		cpu, alloc = c, a
	}
	rt.finish(len(runs), builtinCells*len(runs))

	verified := verifyJournals(dirs, ref, tr)
	roundOf := func(due time.Duration) int { return min(int(due/roundLength), len(rounds)-1) }
	for _, g := range gets {
		rd := &rounds[roundOf(g.due)]
		rd.req = append(rd.req, g.fromDue)
		if !g.ok {
			rd.failed++
		}
	}
	for _, rs := range runs {
		rd := &rounds[roundOf(rs.due)]
		rd.lat = append(rd.lat, rs.fromDue)
		rd.ops++
		rd.cells += builtinCells
		if !rs.ok || !verified[rs.journal] {
			rd.failed++
		}
	}
	if len(verified) != len(runs) {
		fmt.Fprintf(os.Stderr, "bench: %d journals for %d runs\n", len(verified), len(runs))
		rounds[len(rounds)-1].failed++
	}
	m := &measurement{rounds: rounds, procRSS: processRSSKB(), notes: siteNotes(gets, runs)}
	if tr != nil {
		traceSite(tr, gets, runs)
	}
	return m, nil
}

// siteLoad is the site workload's load generator: two connections on one
// schedule that starts at t0 and lasts the window.
type siteLoad struct {
	cfg  config
	tr   *tracer
	base string
	dirs []string // each round's journal directory
	t0   time.Time

	// gate is held for reading by each request, from choosing it to its
	// answer, and for writing while the next round's site takes over, so no
	// request spans two sites.
	gate  sync.RWMutex
	round int // the round whose site is serving

	mu       sync.Mutex
	finished []string // IDs of the serving site's runs whose stream ended in the reference digest
}

// roundEnd is when round k ends, as an offset from t0.
func (l *siteLoad) roundEnd(k int) time.Duration {
	return min(time.Duration(k+1)*roundLength, l.cfg.window)
}

// nextSite hands the requests of round k, and the runs they may revisit,
// to site.
func (l *siteLoad) nextSite(s *siteServer, site *website.Site, k int) {
	l.gate.Lock()
	defer l.gate.Unlock()
	s.use(site)
	l.round = k
	l.mu.Lock()
	l.finished = nil
	l.mu.Unlock()
}

// getLoop sends GETs on one connection at cfg.getRate until the window
// ends.
func (l *siteLoad) getLoop() []getSample {
	c := newClient()
	defer c.CloseIdleConnections()
	rng := rand.New(rand.NewSource(l.cfg.seed))
	routes := append(append([]string(nil), website.LoadRoutes...), "/runs", runPlaceholder)
	var (
		out    []getSample
		free   time.Time // when the connection finished its previous request
		perm   []int
		etags  map[string]string // revalidation tags of the current site
		tagged = -1              // the round whose site the tags came from
	)
	for i := 0; ; i++ {
		at := time.Duration(i) * every(l.cfg.getRate)
		if at >= l.cfg.window {
			return out
		}
		due := l.t0.Add(at)
		// Every block of len(routes) GETs asks each route once, in a seeded
		// order: the seed varies the sequence, not the mix.
		if i%len(routes) == 0 {
			perm = rng.Perm(len(routes))
		}
		route := routes[perm[i%len(routes)]]
		pick := rng.Intn(1 << 30)
		sleepUntil(due)
		l.gate.RLock()
		if route == runPlaceholder {
			route = "/runs"
			l.mu.Lock()
			if len(l.finished) > 0 {
				route = "/runs/" + l.finished[pick%len(l.finished)]
			}
			l.mu.Unlock()
		}
		if tagged != l.round {
			etags, tagged = map[string]string{}, l.round
		}
		sent := time.Now()
		sp := l.tr.start("http.get", 0, fmt.Sprintf("get-%d", i))
		ok := get(c, l.base+route, etags)
		sp.end(okErr(ok))
		done := time.Now()
		l.gate.RUnlock()
		out = append(out, getSample{
			due: due.Sub(l.t0), fromDue: ms(done.Sub(due)), fromSend: ms(done.Sub(sent)),
			lag: lag(due, free, sent), label: routeLabelOf(route), ok: ok,
		})
		free = done
	}
}

// every is the interval between requests sent at rate per second.
func every(rate float64) time.Duration { return time.Duration(float64(time.Second) / rate) }

// postLoop starts runs on one connection at cfg.postRate until the window
// ends, reading each run's event stream to its end before the next.
func (l *siteLoad) postLoop(ref string) []runSample {
	c := newClient()
	defer c.CloseIdleConnections()
	var (
		out  []runSample
		free time.Time
	)
	for j := 0; ; j++ {
		at := time.Duration(j) * every(l.cfg.postRate)
		if at >= l.cfg.window {
			return out
		}
		due := l.t0.Add(at)
		sleepUntil(due)
		l.gate.RLock()
		k := l.round
		sent := time.Now()
		op := fmt.Sprintf("post-%d", j)
		root := l.tr.start("run", 0, op)
		sp := l.tr.start("runs.post", root.id, op)
		id, err := postRun(c, l.base)
		sp.end(err)
		posted := time.Now()
		ok := false
		if err == nil {
			sp = l.tr.start("runs.events", root.id, op)
			var digest string
			digest, err = streamRun(c, l.base, id)
			sp.end(err)
			ok = err == nil && digest == ref
		}
		root.end(okErr(ok))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: site run:", err)
		}
		done := time.Now()
		if ok {
			l.mu.Lock()
			l.finished = append(l.finished, id)
			l.mu.Unlock()
		}
		l.gate.RUnlock()
		out = append(out, runSample{
			due: due.Sub(l.t0), journal: filepath.Join(l.dirs[k], id+".jsonl"),
			fromDue: ms(done.Sub(due)), post: ms(posted.Sub(sent)), lag: lag(due, free, sent), ok: ok,
		})
		free = done
	}
}

// removeAll deletes a working directory, reporting a failure on stderr.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
}

// sleepUntil sleeps until t; a time already past returns at once.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// lag is how late, in ms, the generator sent a request once it could: after
// its due time and after the connection's previous request finished. A
// request queued behind a slow response is the server's delay, charged to
// the request's latency, not to the generator.
func lag(due, free, sent time.Time) float64 {
	if free.After(due) {
		due = free
	}
	return ms(sent.Sub(due))
}

func okErr(ok bool) error {
	if ok {
		return nil
	}
	return fmt.Errorf("failed")
}

// get fetches one route, revalidating finished runs with the ETag the site
// sent last time. A 200 or a 304 is a success.
func get(c *http.Client, u string, etags map[string]string) bool {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return false
	}
	if tag, ok := etags[u]; ok {
		req.Header.Set("If-None-Match", tag)
	}
	resp, err := c.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return false
	}
	if tag := resp.Header.Get("ETag"); tag != "" {
		etags[u] = tag
	}
	return resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified
}

// postRun starts a journaled run of the default systems on two workers.
func postRun(c *http.Client, base string) (string, error) {
	resp, err := c.PostForm(base+"/runs", url.Values{"concurrency": {fmt.Sprint(concurrency)}})
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var body struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", fmt.Errorf("POST /runs: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted || body.ID == "" {
		return "", fmt.Errorf("POST /runs: status %d", resp.StatusCode)
	}
	return body.ID, nil
}

// streamRun reads a run's event stream to its end and returns the digest
// of its final run_end event.
func streamRun(c *http.Client, base, id string) (string, error) {
	resp, err := c.Get(base + "/runs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: status %d", resp.StatusCode)
	}
	var last journal.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			last = journal.Event{}
			if err := json.Unmarshal([]byte(data), &last); err != nil {
				return "", fmt.Errorf("events: %w", err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	if last.Type != journal.TypeRunEnd || last.RunEnd == nil {
		return "", fmt.Errorf("events of %s end with %q, not run_end", id, last.Type)
	}
	return last.RunEnd.Digest, nil
}

// verifyJournals replays every journal the window wrote and reports, per
// journal file, whether it verified and carries the reference digest.
func verifyJournals(dirs []string, ref string, tr *tracer) map[string]bool {
	var paths []string
	for _, dir := range dirs {
		ps, _ := filepath.Glob(filepath.Join(dir, "*.jsonl"))
		paths = append(paths, ps...)
	}
	out := make(map[string]bool, len(paths))
	var bytes, events int64
	start := time.Now()
	for _, path := range paths {
		evs, err := journal.ReadFile(path)
		if err != nil {
			out[path] = false
			continue
		}
		p := journal.Replay(evs)
		out[path] = p.Verify() == nil && p.End.Digest == ref
		events += int64(len(evs))
		if fi, err := os.Stat(path); err == nil {
			bytes += fi.Size()
		}
	}
	if tr != nil && len(paths) > 0 {
		n := float64(len(paths))
		tr.note("journal.replay_ns", float64(time.Since(start).Nanoseconds())/n)
		tr.note("journal.bytes_per_run", float64(bytes)/n)
		tr.note("journal.events_per_run", float64(events)/n)
		start = time.Now()
		for _, dir := range dirs {
			if _, err := openSite(dir); err != nil {
				return out
			}
		}
		tr.note("journal.reload_ns", float64(time.Since(start).Nanoseconds()))
	}
	return out
}

// routeLabelOf maps a request path to the site's route label.
func routeLabelOf(path string) string {
	switch {
	case strings.HasPrefix(path, "/catalogs/"):
		return "/catalogs/:name"
	case strings.HasPrefix(path, "/browse/"):
		return "/browse/:name"
	case strings.HasPrefix(path, "/schema/"):
		return "/schema/:name"
	case strings.HasPrefix(path, "/runs/") && strings.HasSuffix(path, "/events"):
		return "/runs/:id/events"
	case strings.HasPrefix(path, "/runs/"):
		return "/runs/:id"
	}
	return path
}

// siteNotes is the load generator's lag, with a warning when it ran late
// enough to make the latencies suspect.
func siteNotes(gets []getSample, runs []runSample) []string {
	var lag []float64
	for _, g := range gets {
		lag = append(lag, g.lag)
	}
	for _, r := range runs {
		lag = append(lag, r.lag)
	}
	var out []string
	if v, err := percentile(lag, 0.99); err == nil {
		out = append(out, fmt.Sprintf("loadgen_lag_ms_p99 %.4f ms", v))
		if v > 1 {
			out = append(out, "WARNING: the load generator ran more than 1 ms late at p99; latencies are suspect")
		}
	}
	return out
}

// traceSite notes the site's per-layer numbers for the traced window:
// client GET latency, server time per route at the handler boundary,
// transport time, POST time and generator lag.
func traceSite(tr *tracer, gets []getSample, runs []runSample) {
	var req, lag, post []float64
	send := map[string][]float64{}
	for _, g := range gets {
		req = append(req, g.fromDue)
		lag = append(lag, g.lag)
		send[g.label] = append(send[g.label], g.fromSend)
	}
	for _, r := range runs {
		lag = append(lag, r.lag)
		post = append(post, r.post)
	}
	noteQuantile(tr, "http.req_ms_p50", req, 0.5)
	noteQuantile(tr, "http.req_ms_p99", req, 0.99)
	noteQuantile(tr, "loadgen.lag_ms_p99", lag, 0.99)
	noteQuantile(tr, "runs.post_ms_p50", post, 0.5)
	var transport, weight float64
	for _, rs := range routeSlugs {
		server := tr.values("http.server_ms " + rs.label)
		noteQuantile(tr, "http."+rs.slug+".server_ms_p50", server, 0.5)
		noteQuantile(tr, "http."+rs.slug+".server_ms_p90", server, 0.9)
		if c := send[rs.label]; len(c) > 0 && len(server) > 0 {
			transport += (median(c) - median(server)) * float64(len(c))
			weight += float64(len(c))
		}
	}
	if weight > 0 {
		tr.note("http.transport_ms_p50", transport/weight)
	}
}

// noteQuantile notes a percentile of xs when the sample supports it.
func noteQuantile(tr *tracer, name string, xs []float64, p float64) {
	if v, err := percentile(xs, p); err == nil {
		tr.note(name, v)
	}
}
