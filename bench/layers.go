package main

import (
	"fmt"
	"time"

	"thalia/internal/benchmark"
	"thalia/internal/catalog"
	"thalia/internal/cohera"
	"thalia/internal/integration"
	"thalia/internal/scenario"
	"thalia/internal/tess"
	"thalia/internal/xmldom"
	"thalia/internal/xquery"
	"thalia/internal/xquery/plan"
	"thalia/internal/xsd"
)

// metricSpec is one metric as BENCHMARK.json lists it.
type metricSpec struct{ name, unit, better string }

// endToEndSpecs are the metrics an untraced run reports, on every workload.
// Units prefixed ref_ are at the reference speed (see probe.go).
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower"},
	{"run_ms_p50", "ref_ms", "lower"},
	{"req_ms_p50", "ref_ms", "lower"},
	{"cpu_us_per_cell", "ref_us/cell", "lower"},
	{"alloc_kb_per_cell", "KiB/cell", "lower"},
	{"max_rss_mb", "MiB", "lower"},
}

// perLayerSpecs are the metrics a traced run reports. A layer a workload
// does not exercise, or whose sample is too small for the percentile,
// reads 0. "Per run" means per operation of the workload: a paper12 run, a
// cold child, a scale5000 pass, a site POST /runs.
var perLayerSpecs = func() []metricSpec {
	s := []metricSpec{
		{"catalog.render_ms", "ms", "lower"},
		{"tess.extract_ms", "ms", "lower"},
		{"xsd.infer_ms", "ms", "lower"},
		{"catalog.materialize_ms", "ms", "lower"},
		{"run.build_ms", "ms/run", "lower"},
		{"truth.calls", "count/run", "lower"},
		{"truth.busy_ms", "ms/run", "lower"},
	}
	for _, sys := range systemOrder {
		p := "answer." + sys
		s = append(s,
			metricSpec{p + ".calls", "count/run", "lower"},
			metricSpec{p + ".busy_ms", "ms/run", "lower"},
			metricSpec{p + ".first_ms", "ms", "lower"},
			metricSpec{p + ".errors", "count/run", "lower"},
			metricSpec{p + ".declined", "count/run", "lower"},
			metricSpec{p + ".repeat_ms", "ms", "lower"})
	}
	s = append(s,
		metricSpec{"answer.repeat_requests", "count/run", "lower"},
		metricSpec{"cohera.build_ms", "ms", "lower"},
		metricSpec{"xquery.compile_ms", "ms", "lower"},
		metricSpec{"xquery.eval_ms", "ms", "lower"},
		metricSpec{"xquery.plan_cache_hits", "count/run", "higher"},
		metricSpec{"xquery.plan_cache_misses", "count/run", "lower"},
		metricSpec{"scenario.spec_ms", "ms/run", "lower"},
		metricSpec{"scenario.doc_ms", "ms/run", "lower"},
		metricSpec{"scenario.docs_built_per_cell", "count/cell", "lower"},
		metricSpec{"scenario.docs_high_water", "count", "lower"},
		metricSpec{"match.calls", "count/run", "lower"},
		metricSpec{"match.busy_ms", "ms/run", "lower"},
		metricSpec{"match.rows", "count/run", "lower"},
		metricSpec{"engine.cell_ms", "ms/run", "lower"},
		metricSpec{"engine.other_ms", "ms/run", "lower"},
		metricSpec{"engine.queue_wait_ms_p99", "ms", "lower"},
		metricSpec{"http.req_ms_p50", "ms", "lower"},
		metricSpec{"http.req_ms_p99", "ms", "lower"},
	)
	for _, rs := range routeSlugs {
		s = append(s,
			metricSpec{"http." + rs.slug + ".server_ms_p50", "ms", "lower"},
			metricSpec{"http." + rs.slug + ".server_ms_p90", "ms", "lower"})
	}
	return append(s,
		metricSpec{"http.transport_ms_p50", "ms", "lower"},
		metricSpec{"runs.post_ms_p50", "ms", "lower"},
		metricSpec{"journal.bytes_per_run", "B/run", "lower"},
		metricSpec{"journal.events_per_run", "count/run", "lower"},
		metricSpec{"journal.replay_ms", "ms/run", "lower"},
		metricSpec{"journal.reload_ms", "ms", "lower"},
		metricSpec{"runtime.gc_cycles_per_kcell", "count/kcell", "lower"},
		metricSpec{"runtime.gc_pause_ms", "ms/run", "lower"},
		metricSpec{"runtime.heap_peak_mb", "MiB", "lower"},
		metricSpec{"loadgen.lag_ms_p99", "ms", "lower"},
		metricSpec{"trace.overhead_pct", "%", "lower"},
		metricSpec{"trace.spans", "count", "lower"},
	)
}()

// perLayer computes every per-layer metric from a traced window's spans
// and notes.
func perLayer(tr *tracer, overheadPct float64) map[string]float64 {
	byName := map[string]layer{}
	for _, l := range tr.layers() {
		byName[l.Name] = l
	}
	runs := float64(byName["run"].Count)
	perRun := func(v float64) float64 {
		if runs == 0 {
			return 0
		}
		return v / runs
	}
	msPerRun := func(d time.Duration) float64 { return perRun(ms(d)) }
	nsMedian := func(note string) float64 { return median(tr.values(note)) / 1e6 }
	mean := func(note string) float64 {
		vs := tr.values(note)
		if len(vs) == 0 {
			return 0
		}
		return tr.sum(note) / float64(len(vs))
	}
	peak := func(note string) float64 {
		m := 0.0
		for _, v := range tr.values(note) {
			m = max(m, v)
		}
		return m
	}
	v := map[string]float64{
		"catalog.render_ms":            nsMedian("catalog.render_ns"),
		"tess.extract_ms":              nsMedian("tess.extract_ns"),
		"xsd.infer_ms":                 nsMedian("xsd.infer_ns"),
		"catalog.materialize_ms":       nsMedian("catalog.materialize_ns"),
		"run.build_ms":                 msPerRun(byName["build"].Busy),
		"truth.calls":                  perRun(float64(byName["truth"].Count)),
		"truth.busy_ms":                msPerRun(byName["truth"].Busy),
		"answer.repeat_requests":       perRun(tr.sum("answer.repeat_requests")),
		"cohera.build_ms":              nsMedian("cohera.build_ns"),
		"xquery.compile_ms":            nsMedian("xquery.compile_ns"),
		"xquery.eval_ms":               nsMedian("xquery.eval_ns"),
		"xquery.plan_cache_hits":       perRun(tr.sum("xquery.plan_cache_hits")),
		"xquery.plan_cache_misses":     perRun(tr.sum("xquery.plan_cache_misses")),
		"scenario.spec_ms":             nsMedian("scenario.spec_ns"),
		"scenario.doc_ms":              nsMedian("scenario.doc_ns"),
		"scenario.docs_built_per_cell": mean("scenario.docs_built_per_cell"),
		"scenario.docs_high_water":     peak("scenario.docs_high_water"),
		"match.calls":                  mean("match.calls"),
		"match.busy_ms":                mean("match.busy_ns") / 1e6,
		"match.rows":                   mean("match.rows"),
		"engine.cell_ms":               mean("engine.cell_ns") / 1e6,
		"engine.queue_wait_ms_p99":     nsMedian("engine.queue_wait_p99_ns"),
		"journal.bytes_per_run":        mean("journal.bytes_per_run"),
		"journal.events_per_run":       mean("journal.events_per_run"),
		"journal.replay_ms":            nsMedian("journal.replay_ns"),
		"journal.reload_ms":            nsMedian("journal.reload_ns"),
		"runtime.gc_cycles_per_kcell":  mean("runtime.gc_cycles_per_kcell"),
		"runtime.gc_pause_ms":          mean("runtime.gc_pause_ns") / 1e6,
		"runtime.heap_peak_mb":         peak("runtime.heap_peak_bytes") / (1 << 20),
		"trace.overhead_pct":           overheadPct,
		"trace.spans":                  float64(tr.spanCount()),
	}
	if byName["engine"].Count > 0 {
		v["engine.other_ms"] = msPerRun(byName["engine"].Busy)*concurrency - v["engine.cell_ms"]
	}
	for _, sys := range systemOrder {
		l := byName["answer."+sys]
		p := "answer." + sys
		v[p+".calls"] = perRun(float64(l.Count))
		v[p+".busy_ms"] = msPerRun(l.Busy)
		v[p+".first_ms"] = nsMedian(p + ".first_ns")
		v[p+".errors"] = perRun(float64(l.Errors))
		v[p+".declined"] = perRun(tr.sum(p + ".declined"))
		v[p+".repeat_ms"] = nsMedian(p + ".repeat_ns")
	}
	for _, spec := range perLayerSpecs {
		if _, ok := v[spec.name]; !ok {
			v[spec.name] = median(tr.values(spec.name)) // notes named after the metric
		}
	}
	return v
}

// layerSum is the engine accounting check: ground truth, answers and row
// matching plus the engine's residual (wall × workers minus the engine's
// own per-cell time), as a share of wall × workers. The residual comes
// from the engine's telemetry, not from these spans, so the sum is 100%
// only when the spans and the match replay account for the engine's cell
// time.
func layerSum(v map[string]float64) float64 {
	var engineWall float64 = v["engine.cell_ms"] + v["engine.other_ms"]
	if engineWall == 0 {
		return 0
	}
	named := v["truth.busy_ms"] + v["match.busy_ms"]
	for _, sys := range systemOrder {
		named += v["answer."+sys+".busy_ms"]
	}
	return 100 * (named + v["engine.other_ms"]) / engineWall
}

// replayTestbed times the testbed pipeline — render, extract, infer — over
// every source, three times, and notes the median totals.
func replayTestbed(tr *tracer) error {
	for rep := 0; rep < 3; rep++ {
		var render, extract, infer time.Duration
		for _, s := range catalog.All() {
			t := time.Now()
			page := s.RenderHTML(s)
			render += time.Since(t)
			t = time.Now()
			doc, err := tess.Extract(s.Wrapper(), page)
			extract += time.Since(t)
			if err != nil {
				return fmt.Errorf("replay %s: %w", s.Name, err)
			}
			t = time.Now()
			if _, err := xsd.Infer(s.Name, doc); err != nil {
				return fmt.Errorf("replay %s: %w", s.Name, err)
			}
			infer += time.Since(t)
		}
		tr.note("catalog.render_ns", float64(render))
		tr.note("tess.extract_ns", float64(extract))
		tr.note("xsd.infer_ns", float64(infer))
	}
	return nil
}

// replayBuiltins times what the built-in systems' layers cost outside the
// loop: compiling and evaluating the twelve queries on the plan engine,
// building Cohera's database, and asking a warm instance the same twelve
// requests again — the only place its answer cache can hit.
func replayBuiltins(tr *tracer) error {
	resolve := catalog.Resolver()
	for rep := 0; rep < 10; rep++ {
		var compile, eval time.Duration
		for _, q := range benchmark.Queries() {
			t := time.Now()
			p, err := plan.CompileQuery(q.XQuery)
			compile += time.Since(t)
			if err != nil {
				return fmt.Errorf("q%02d: %w", q.ID, err)
			}
			t = time.Now()
			if _, err := p.Eval(xquery.NewContext(resolve)); err != nil {
				return fmt.Errorf("q%02d: %w", q.ID, err)
			}
			eval += time.Since(t)
		}
		tr.note("xquery.compile_ns", float64(compile))
		tr.note("xquery.eval_ns", float64(eval))
	}
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		if _, err := cohera.New().DB(); err != nil {
			return err
		}
		tr.note("cohera.build_ns", float64(time.Since(t)))
	}
	for rep := 0; rep < 3; rep++ {
		for _, sys := range builtins() {
			reqs := make([]integration.Request, 0, 12)
			for _, q := range benchmark.Queries() {
				reqs = append(reqs, q.Request())
			}
			tr.note("answer."+systemKeys[sys.Name()]+".repeat_ns", float64(askTwice(sys, reqs)))
		}
	}
	return nil
}

// askTwice asks sys every request, then times asking them all again.
func askTwice(sys integration.System, reqs []integration.Request) time.Duration {
	for _, r := range reqs {
		_, _ = sys.Answer(r) // declined and failed requests cost the same the second time
	}
	t := time.Now()
	for _, r := range reqs {
		_, _ = sys.Answer(r)
	}
	return time.Since(t)
}

// replayScenario times the generator's layers for one pass, from a sample
// of its sources scaled to the pass: the query spec, the challenge
// document, and compiling and evaluating the challenge query on it. It also
// asks a mediator twelve requests twice.
func replayScenario(tr *tracer, cfg config) error {
	sc, err := scenario.New(scenario.Params{Sources: cfg.sources, Seed: cfg.seed})
	if err != nil {
		return err
	}
	n := min(500, cfg.sources)
	var spec, doc, compile, eval time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		s := sc.Spec(i)
		spec += time.Since(t)
		t = time.Now()
		d := sc.ChallengeDocument(i)
		doc += time.Since(t)
		t = time.Now()
		p, err := plan.CompileQuery(s.ChallengeXQuery)
		compile += time.Since(t)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Source, err)
		}
		uri := s.Source + ".xml"
		ctx := xquery.NewContext(func(u string) (*xmldom.Document, error) {
			if u != uri {
				return nil, fmt.Errorf("no document %q", u)
			}
			return d, nil
		})
		t = time.Now()
		if _, err := p.Eval(ctx); err != nil {
			return fmt.Errorf("%s: %w", s.Source, err)
		}
		eval += time.Since(t)
	}
	scale := float64(cfg.sources) / float64(n)
	tr.note("scenario.spec_ns", float64(spec)*scale)
	tr.note("scenario.doc_ns", float64(doc)*scale)
	tr.note("xquery.compile_ns", float64(compile)*scale)
	tr.note("xquery.eval_ns", float64(eval)*scale)
	qs := sc.Queries()
	reqs := make([]integration.Request, 0, 12)
	for _, q := range qs[:min(12, len(qs))] {
		reqs = append(reqs, q.Request())
	}
	tr.note("answer.scenario.repeat_ns", float64(askTwice(sc.NewMediator(), reqs)))
	return nil
}
