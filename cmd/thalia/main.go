// Command thalia is the THALIA workbench CLI: it lists the testbed's
// course-catalog sources, shows their original HTML snapshots, extracted
// XML and inferred schemas, prints the twelve benchmark queries and their
// sample solutions, runs ad-hoc XQuery against the testbed, and evaluates
// the built-in integration systems on the benchmark.
//
// Usage:
//
//	thalia sources                     list the testbed sources
//	thalia show <source> [--html]      extracted XML (or original HTML)
//	thalia schema <source>             inferred XML Schema
//	thalia queries                     the twelve benchmark queries
//	thalia solution <n>                sample solution for query n
//	thalia xq '<query>'                run an XQuery against the testbed
//	thalia bench [--system name]... [--parallel N] [--timeout D] [--telemetry]
//	             [--profile dir] [--explain-dir dir] [--journal-dir dir]
//	             [--faults plan.json|standard] [--seed N] [--retries N]
//	             [--scenario N] [--mix spec] [--scenario-size K]
//	                                   evaluate systems (default: all),
//	                                   optionally under injected faults with
//	                                   retries, backoff and a circuit breaker;
//	                                   --journal-dir flight-records the run
//	                                   as a JSONL journal; --scenario swaps
//	                                   the canonical testbed for a seeded
//	                                   generated workload of N sources;
//	                                   each flag also takes --name=value
//	thalia explain <n> <system>        trace one query's evaluation
//	thalia hetero                      the heterogeneity classification
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"thalia"
	"thalia/internal/benchmark"
	"thalia/internal/buildinfo"
	"thalia/internal/faultline"
	"thalia/internal/hetero"
	"thalia/internal/journal"
	"thalia/internal/scenario"
	"thalia/internal/telemetry"
	"thalia/internal/tess"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "thalia:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "sources":
		return sources()
	case "show":
		return show(args[1:])
	case "schema":
		return schema(args[1:])
	case "queries":
		return queries()
	case "solution":
		return solution(args[1:])
	case "xq":
		return xq(args[1:])
	case "bench":
		return bench(args[1:])
	case "explain":
		return explainCmd(args[1:])
	case "export":
		return export(args[1:])
	case "validate":
		return validate()
	case "detect":
		return detect(args[1:])
	case "hetero":
		return heteroCmd()
	case "version", "-version", "--version":
		fmt.Println(buildinfo.String("thalia"))
		return nil
	case "help", "-h", "--help":
		return usage()
	default:
		return fmt.Errorf("unknown command %q (try 'thalia help')", args[0])
	}
}

func usage() error {
	fmt.Println(`THALIA — Test Harness for the Assessment of Legacy information Integration Approaches

Commands:
  sources                   list the testbed's course-catalog sources
  show <source> [--html]    print a source's extracted XML (or original HTML)
  schema <source>           print a source's inferred XML Schema
  queries                   print the twelve benchmark queries
  solution <n>              print the sample solution for query n
  xq '<query>'              run an XQuery (subset) against the testbed
  bench [--system name]...  evaluate integration systems
        [--parallel N]      (cohera|iwiz|mediator|declarative);
        [--timeout D]       N workers (default: one per CPU), per-query
        [--telemetry]       timeout D (e.g. 30s; default: none); --telemetry
        [--profile DIR]     prints an engine metrics snapshot (per-query
        [--explain-dir DIR] p50/p95/p99 latency, queue wait, errors);
        [--faults P]        --profile writes cpu.pprof and heap.pprof to DIR;
        [--seed N]          --explain-dir writes explain traces of failed
        [--retries N]       cells to DIR as JSON; --faults injects a JSON
        [--journal-dir DIR] fault plan (or the "standard" chaos mix) and
        [--scenario N]      evaluates under the seeded resilience policy —
        [--mix SPEC]        bounded retries with jittered backoff and a
        [--scenario-size K] per-system circuit breaker — printing per-cell
                            attempt histories; --retries overrides the
                            attempt budget; --journal-dir flight-records
                            the run to DIR/<run-id>.jsonl (replay with
                            thalia-bench report); --scenario evaluates a
                            seeded generated workload of N synthetic
                            sources instead of the canonical testbed
                            (streaming, bounded memory), --mix sets the
                            heterogeneity mix (uniform, or e.g.
                            synonyms:2,nulls,7:3), --scenario-size scales
                            courses per catalog (default 12); every
                            flag also takes the --name=value form
  explain <n> <system>      trace one query's evaluation through a system:
        [--json]            operator spans, row counts, provenance events
  export <dir>              write the whole testbed to disk (HTML, XML,
                            XSD, wrapper configs, queries, solutions)
  validate                  re-extract and validate every source
  detect <ref> <challenge>  detect which heterogeneities a source pair
                            exhibits (the Section 3 classification, automated)
  hetero                    print the heterogeneity classification`)
	return nil
}

func sources() error {
	fmt.Printf("%-11s %-48s %-12s %s\n", "NAME", "UNIVERSITY", "COUNTRY", "COURSES")
	for _, s := range thalia.Sources() {
		fmt.Printf("%-11s %-48s %-12s %d\n", s.Name, s.University, s.Country, len(s.Courses))
	}
	return nil
}

func show(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("show: need a source name")
	}
	src, err := thalia.LookupSource(args[0])
	if err != nil {
		return err
	}
	if len(args) > 1 && args[1] == "--html" {
		fmt.Print(src.Page())
		return nil
	}
	xml, err := src.XML()
	if err != nil {
		return err
	}
	fmt.Print(xml)
	return nil
}

func schema(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("schema: need a source name")
	}
	src, err := thalia.LookupSource(args[0])
	if err != nil {
		return err
	}
	sch, err := src.Schema()
	if err != nil {
		return err
	}
	fmt.Print(sch.Encode())
	return nil
}

func queries() error {
	for _, q := range thalia.Queries() {
		fmt.Printf("Query %d — %s [%v]\n", q.ID, q.Name, q.Case)
		fmt.Printf("  reference: %s   challenge: %s\n", q.Reference, q.ChallengeSource)
		for _, line := range strings.Split(q.XQuery, "\n") {
			fmt.Printf("  | %s\n", line)
		}
		fmt.Printf("  challenge: %s\n\n", q.Challenge)
	}
	return nil
}

func solution(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("solution: need a query number 1-12")
	}
	id, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("solution: bad query number %q", args[0])
	}
	q, err := thalia.QueryByID(id)
	if err != nil {
		return err
	}
	rows, err := q.Expected()
	if err != nil {
		return err
	}
	fmt.Print(thalia.ResultXML(q.ID, rows).Encode())
	return nil
}

func xq(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("xq: need a query string")
	}
	seq, err := thalia.EvalXQuery(strings.Join(args, " "))
	if err != nil {
		return err
	}
	for _, item := range seq {
		fmt.Println(thalia.ItemString(item))
	}
	return nil
}

// knownSystems maps CLI system names to their constructors.
func knownSystems() map[string]func() thalia.System {
	return map[string]func() thalia.System{
		"cohera":      thalia.NewCohera,
		"iwiz":        thalia.NewIWIZ,
		"mediator":    thalia.NewReferenceMediator,
		"declarative": thalia.NewDeclarativeMediator,
	}
}

// systemList is bench's repeatable --system flag: each value names one of
// knownSystems.
type systemList []thalia.System

func (l *systemList) String() string { return "" }

func (l *systemList) Set(name string) error {
	mk, ok := knownSystems()[name]
	if !ok {
		return fmt.Errorf("unknown system %q (cohera|iwiz|mediator|declarative)", name)
	}
	*l = append(*l, mk())
	return nil
}

func bench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var systems systemList
	var parallel, retries, scenarioSources, scenarioSize int
	var timeout time.Duration
	var withTelemetry bool
	var profileDir, explainDir, faultsArg, journalDir, mixArg string
	var seed int64
	fs.Var(&systems, "system", "evaluate this system (repeatable; default: all)")
	fs.IntVar(&parallel, "parallel", 0, "worker count (default: one per CPU)")
	fs.DurationVar(&timeout, "timeout", 0, "per-query timeout (default: none)")
	fs.BoolVar(&withTelemetry, "telemetry", false, "print an engine metrics snapshot")
	fs.StringVar(&profileDir, "profile", "", "write cpu.pprof and heap.pprof to this directory")
	fs.StringVar(&explainDir, "explain-dir", "", "write explain traces of failed cells to this directory")
	fs.StringVar(&faultsArg, "faults", "", "inject a JSON fault plan, or \"standard\"")
	fs.StringVar(&journalDir, "journal-dir", "", "flight-record the run to this directory")
	fs.Int64Var(&seed, "seed", 1, "fault, resilience and scenario seed")
	fs.IntVar(&retries, "retries", 0, "attempt budget per cell")
	fs.IntVar(&scenarioSources, "scenario", 0, "evaluate a generated workload of this many sources")
	fs.StringVar(&mixArg, "mix", "", "heterogeneity mix of the generated workload")
	fs.IntVar(&scenarioSize, "scenario-size", 0, "courses per generated catalog")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed the usage; asking for help is not a failure
		}
		return fmt.Errorf("bench: %w", err)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("bench: unexpected argument %q", fs.Arg(0))
	}
	// Zero means "unset" for these flags, so an explicit out-of-range value
	// must be told apart from the default.
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	switch {
	case given["parallel"] && parallel < 1:
		return fmt.Errorf("bench: bad --parallel value %d (want a positive integer)", parallel)
	case given["timeout"] && timeout <= 0:
		return fmt.Errorf("bench: bad --timeout value %v (want e.g. 30s)", timeout)
	case given["retries"] && retries < 1:
		return fmt.Errorf("bench: bad --retries value %d (want a positive integer)", retries)
	case given["scenario"] && scenarioSources < 1:
		return fmt.Errorf("bench: bad --scenario value %d (want a positive source count)", scenarioSources)
	case given["scenario-size"] && scenarioSize < 2:
		return fmt.Errorf("bench: bad --scenario-size value %d (want an integer >= 2)", scenarioSize)
	}
	runner := thalia.NewRunner()
	runner.Concurrency = parallel
	runner.QueryTimeout = timeout
	runner.ExplainFailures = explainDir != ""
	var reg *telemetry.Registry
	if withTelemetry {
		reg = telemetry.NewRegistry()
		runner.Telemetry = reg
	}
	var sc *scenario.Scenario
	if scenarioSources > 0 {
		if len(systems) > 0 {
			return fmt.Errorf("bench: --scenario evaluates the scenario mediator; drop --system")
		}
		mix, err := scenario.ParseMix(mixArg)
		if err != nil {
			return fmt.Errorf("bench: --mix: %w", err)
		}
		sc, err = scenario.New(scenario.Params{Sources: scenarioSources, Seed: seed, Mix: mix, Size: scenarioSize})
		if err != nil {
			return fmt.Errorf("bench: %w", err)
		}
		runner.Queries = sc.Queries()
		systems = []thalia.System{sc.NewMediator()}
	} else if mixArg != "" || scenarioSize != 0 {
		return fmt.Errorf("bench: --mix and --scenario-size require --scenario")
	}
	if len(systems) == 0 {
		systems = []thalia.System{
			thalia.NewCohera(), thalia.NewIWIZ(),
			thalia.NewReferenceMediator(), thalia.NewDeclarativeMediator(),
		}
	}
	chaos := faultsArg != ""
	var plan *thalia.FaultPlan
	if chaos {
		if faultsArg == "standard" {
			plan = thalia.StandardFaultMix(seed)
		} else {
			data, err := os.ReadFile(faultsArg)
			if err != nil {
				return fmt.Errorf("bench: %w", err)
			}
			plan, err = thalia.ParseFaultPlan(data)
			if err != nil {
				return fmt.Errorf("bench: %s: %w", faultsArg, err)
			}
			if plan.Seed == 0 {
				plan.Seed = seed
			}
		}
	}
	if chaos || retries > 0 {
		runner.Resilience = thalia.DefaultResilience(seed)
		if retries > 0 {
			runner.Resilience.MaxAttempts = retries
		}
	}
	var journalFile string
	if journalDir != "" {
		if err := os.MkdirAll(journalDir, 0o755); err != nil {
			return fmt.Errorf("bench: --journal-dir: %w", err)
		}
		id := "run-" + strings.ReplaceAll(time.Now().UTC().Format("20060102-150405.000"), ".", "")
		journalFile = filepath.Join(journalDir, id+".jsonl")
		w, err := journal.Create(journalFile)
		if err != nil {
			return fmt.Errorf("bench: --journal-dir: %w", err)
		}
		defer w.Close()
		rec := &journal.Recorder{W: w, RunID: id, Harness: "thalia bench"}
		if plan != nil {
			rec.FaultPlanDigest = plan.Digest()
		}
		runner.Journal = rec
		if runner.Telemetry == nil {
			// Journals sample telemetry snapshots; attach a registry even
			// without --telemetry (it cannot change the scorecards).
			runner.Telemetry = telemetry.NewRegistry()
		}
	}
	if plan != nil {
		// Wrapped after the registry is attached, so injected faults are
		// counted in the telemetry the run prints and journals.
		for i, sys := range systems {
			systems[i] = faultline.Wrap(sys, plan, runner.Telemetry)
		}
	}
	stopProfiles := func() error { return nil }
	if profileDir != "" {
		stop, err := startProfiles(profileDir)
		if err != nil {
			return err
		}
		stopProfiles = stop
	}
	cards, err := runner.EvaluateAllContext(context.Background(), systems...)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	if sc != nil {
		// The canonical side-by-side table assumes the twelve fixed
		// queries; a scenario run gets the per-class matrix instead.
		fmt.Println(scenarioMatrix(sc, cards[0]))
		if sc.Sources() <= 50 {
			fmt.Println(cards[0].Format())
		}
		fmt.Println(benchmark.Summary(cards[0]))
	} else {
		fmt.Println(thalia.Comparison(cards))
		for _, card := range cards {
			fmt.Println(card.Format())
		}
	}
	if chaos || retries > 0 {
		fmt.Println(thalia.FormatChaos(cards))
	}
	if reg != nil {
		fmt.Println(benchmark.FormatEngineMetrics(reg.Snapshot()))
	}
	if explainDir != "" {
		n, err := writeExplainTraces(explainDir, cards)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d explain trace(s) to %s\n", n, explainDir)
	}
	if journalFile != "" {
		fmt.Printf("run journal written to %s (replay with: thalia-bench report %s)\n", journalFile, journalFile)
	}
	return nil
}

// scenarioMatrix renders a generated workload's outcome as a per-class
// matrix: how many sources drew each heterogeneity class and how the
// mediator fared on them.
func scenarioMatrix(sc *scenario.Scenario, card *benchmark.Scorecard) string {
	type agg struct{ total, correct, supported int }
	byCase := map[hetero.Case]*agg{}
	for i, r := range card.Results {
		c := sc.Case(i)
		a := byCase[c]
		if a == nil {
			a = &agg{}
			byCase[c] = a
		}
		a.total++
		if r.Supported {
			a.supported++
		}
		if r.Correct {
			a.correct++
		}
	}
	p := sc.Params()
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario workload — %d sources, seed %d, mix %s, size %d\n\n",
		p.Sources, p.Seed, p.Mix, p.Size)
	fmt.Fprintf(&b, "%-4s %-42s %8s %8s %9s\n", "Case", "Heterogeneity", "sources", "correct", "supported")
	for _, c := range hetero.AllCases() {
		a := byCase[c]
		if a == nil {
			continue
		}
		fmt.Fprintf(&b, "%-4d %-42s %8d %8d %9d\n", int(c), c.Name(), a.total, a.correct, a.supported)
	}
	return b.String()
}

// startProfiles begins a CPU profile in dir and returns a stop function that
// finishes it and writes a heap profile alongside (cpu.pprof, heap.pprof).
func startProfiles(dir string) (func() error, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
		heap, err := os.Create(filepath.Join(dir, "heap.pprof"))
		if err != nil {
			return err
		}
		runtime.GC() // materialize up-to-date allocation stats
		if err := pprof.WriteHeapProfile(heap); err != nil {
			heap.Close()
			return err
		}
		// Close explicitly: this is where buffered profile writes surface
		// their errors, and a deferred Close would swallow them.
		return heap.Close()
	}, nil
}

// writeExplainTraces dumps the explain trace of every failed cell to
// dir/qNN-<system>.json and returns how many were written.
func writeExplainTraces(dir string, cards []*benchmark.Scorecard) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	n := 0
	for _, card := range cards {
		slug := strings.ToLower(strings.ReplaceAll(card.System, " ", "-"))
		for _, res := range card.Results {
			if res.Explain == nil || res.Explain.Empty() {
				continue
			}
			raw, err := res.Explain.JSON()
			if err != nil {
				return n, err
			}
			name := fmt.Sprintf("q%02d-%s.json", res.QueryID, slug)
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// explainCmd traces one query's evaluation through one system and prints the
// trace: indented text plan by default, JSON with --json.
func explainCmd(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("explain: usage: thalia explain <query 1-12> <system> [--json]")
	}
	id, err := strconv.Atoi(strings.TrimPrefix(args[0], "q"))
	if err != nil || id < 1 || id > 12 {
		return fmt.Errorf("explain: bad query %q (want 1-12)", args[0])
	}
	mk, ok := knownSystems()[args[1]]
	if !ok {
		return fmt.Errorf("explain: unknown system %q (cohera|iwiz|mediator|declarative)", args[1])
	}
	asJSON := false
	for _, a := range args[2:] {
		if a != "--json" {
			return fmt.Errorf("explain: unknown flag %q", a)
		}
		asJSON = true
	}
	runner := thalia.NewRunner()
	res, tr, err := runner.Explain(context.Background(), mk(), id)
	if err != nil {
		return err
	}
	if asJSON {
		raw, err := tr.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
		return nil
	}
	fmt.Print(tr.Text())
	status := "declined"
	switch {
	case res.Correct:
		status = "correct"
	case res.Err != "":
		status = "error: " + res.Err
	case res.Supported:
		status = "INCORRECT"
	}
	fmt.Printf("%s\nresult: %s\n", tr.Digest(), status)
	return nil
}

// export materializes the downloadable testbed: per-source original HTML,
// extracted XML, inferred schema and wrapper configuration, plus the twelve
// query files and sample solutions — the contents of the web site's "Run
// Benchmark" bundles, laid out on disk.
func export(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("export: need a target directory")
	}
	dir := args[0]
	write := func(rel, content string) error {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(content), 0o644)
	}
	for _, s := range thalia.Sources() {
		xml, err := s.XML()
		if err != nil {
			return err
		}
		sch, err := s.Schema()
		if err != nil {
			return err
		}
		for rel, content := range map[string]string{
			"sources/" + s.Name + "/original.html":      s.Page(),
			"sources/" + s.Name + "/" + s.Name + ".xml": xml,
			"sources/" + s.Name + "/" + s.Name + ".xsd": sch.Encode(),
			"sources/" + s.Name + "/wrapper.xml":        tess.MarshalConfig(s.Wrapper()),
		} {
			if err := write(rel, content); err != nil {
				return err
			}
		}
	}
	for _, q := range thalia.Queries() {
		body := fmt.Sprintf("(: Query %d — %s :)\n\n%s\n", q.ID, q.Name, q.XQuery)
		if err := write(fmt.Sprintf("queries/query%02d.xq", q.ID), body); err != nil {
			return err
		}
		rows, err := q.Expected()
		if err != nil {
			return err
		}
		if err := write(fmt.Sprintf("solutions/query%02d.xml", q.ID),
			thalia.ResultXML(q.ID, rows).Encode()); err != nil {
			return err
		}
	}
	fmt.Printf("exported %d sources, 12 queries and 12 solutions to %s\n", len(thalia.Sources()), dir)
	return nil
}

// validate re-runs the full pipeline for every source and checks the
// extraction against its inferred schema.
func validate() error {
	failed := 0
	for _, s := range thalia.Sources() {
		doc, err := s.Document()
		if err != nil {
			fmt.Printf("%-11s EXTRACT FAILED: %v\n", s.Name, err)
			failed++
			continue
		}
		sch, err := s.Schema()
		if err != nil {
			fmt.Printf("%-11s SCHEMA FAILED: %v\n", s.Name, err)
			failed++
			continue
		}
		if errs := sch.Validate(doc); len(errs) != 0 {
			fmt.Printf("%-11s INVALID: %v\n", s.Name, errs[0])
			failed++
			continue
		}
		fmt.Printf("%-11s ok (%d courses)\n", s.Name, len(doc.Root.ChildElements()))
	}
	if failed > 0 {
		return fmt.Errorf("%d source(s) failed validation", failed)
	}
	return nil
}

// detect runs the heterogeneity detector over a source pair.
func detect(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("detect: need two source names")
	}
	dets, err := thalia.DetectHeterogeneities(args[0], args[1])
	if err != nil {
		return err
	}
	if len(dets) == 0 {
		fmt.Println("no heterogeneities detected")
		return nil
	}
	for _, d := range dets {
		fmt.Printf("%-45v %s\n", d.Case, d.Evidence)
	}
	return nil
}

func heteroCmd() error {
	for _, c := range thalia.Heterogeneities() {
		info, err := thalia.DescribeHeterogeneity(c)
		if err != nil {
			return err
		}
		fmt.Printf("%2d. %-42s [%s]\n    %s\n    e.g. %s\n",
			int(info.Case), info.Name, info.Group, info.Description, info.Example)
	}
	return nil
}
