// Command thalia-bench runs the chaos regression harness, replays run
// journals, and times the XQuery engines against each other.
//
//	thalia-bench chaos   [-out BENCH_chaos.json] [-runs 3] [-pool N] [-seed 1]
//	thalia-bench plan    [-runs 200]
//	thalia-bench report  [-json] [-require-complete] <journal.jsonl>
//	thalia-bench compare -baseline BENCH_chaos.json -fresh fresh.json
//	                     [-tolerance 0.30] [-slowdown 1.0]
//
// chaos times benchmark.MeasureChaos: the four built-in systems evaluated
// under a seeded standard-mix fault plan with the default resilience
// policy, the cost of retries, backoff and breaker accounting. No workload
// of the end-to-end benchmark (bench/) injects faults, so this raw-time
// artifact is the only gate on that cost. compare reads two chaos
// artifacts and fails (exit 1) if the fresh run's ns/op of any
// configuration, or its seq-to-pool speedup, regressed beyond the
// tolerance; -slowdown multiplies the fresh numbers first, an injected
// regression that proves the gate trips.
//
// report replays a run journal (internal/journal), such as one that
// `thalia bench --journal-dir` writes, into the run summary, and checks
// that the replay reproduces the digest the journal's run-end event
// recorded. plan reports per-query ns/op for the compiled-plan engine, the
// default execution path, against the reference interpreter, checking
// result equality as it goes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"thalia/internal/benchmark"
	"thalia/internal/buildinfo"
	"thalia/internal/catalog"
	"thalia/internal/cohera"
	"thalia/internal/integration"
	"thalia/internal/iwiz"
	"thalia/internal/journal"
	"thalia/internal/rewrite"
	"thalia/internal/ufmw"
	"thalia/internal/xquery"
	"thalia/internal/xquery/plan"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "thalia-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("need a subcommand: chaos | plan | report | compare")
	}
	var cmd func([]string, io.Writer) error
	switch args[0] {
	case "chaos":
		cmd = chaosCmd
	case "plan":
		cmd = planCmd
	case "report":
		cmd = reportCmd
	case "compare":
		cmd = compareCmd
	case "-version", "--version":
		fmt.Fprintln(out, buildinfo.String("thalia-bench"))
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q (chaos | plan | report | compare)", args[0])
	}
	// -h prints the subcommand's usage; asking for help is not a failure.
	if err := cmd(args[1:], out); !errors.Is(err, flag.ErrHelp) {
		return err
	}
	return nil
}

func systems() []integration.System {
	return []integration.System{cohera.New(), iwiz.New(), ufmw.New(), rewrite.NewSystem()}
}

func chaosCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	path := fs.String("out", "BENCH_chaos.json", "artifact path")
	runs := fs.Int("runs", 3, "EvaluateAll executions per configuration")
	pool := fs.Int("pool", runtime.GOMAXPROCS(0), "parallel pool size to measure")
	seed := fs.Int64("seed", 1, "fault plan and jitter seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pool < 2 {
		*pool = 2
	}
	rep, err := benchmark.MeasureChaos(*runs, []int{*pool}, *seed, systems()...)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(*path); err != nil {
		return err
	}
	fmt.Fprintf(out, "chaos: %d configs, speedup %.2fx, wrote %s\n", len(rep.Timings), rep.Speedup, *path)
	return nil
}

// reportCmd replays a run journal into its projection and renders the run
// report — human text by default, machine JSON with -json. Replay always
// verifies structural integrity (parseable events, monotonic sequence); a
// complete journal must additionally replay to the exact ranked-scorecard
// digest its run-end event recorded, and -require-complete turns a missing
// run_end (crashed or still-running journal) into a failure too.
func reportCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "render the machine-readable report")
	requireComplete := fs.Bool("require-complete", false, "fail unless the journal has a verified run_end")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("report: usage: thalia-bench report [-json] [-require-complete] <journal.jsonl>")
	}
	events, err := journal.ReadFile(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if len(events) == 0 {
		return fmt.Errorf("report: %s: empty journal", fs.Arg(0))
	}
	p := journal.Replay(events)
	if p.Complete() {
		if err := p.Verify(); err != nil {
			return fmt.Errorf("report: %s: %w", fs.Arg(0), err)
		}
	} else if *requireComplete {
		return fmt.Errorf("report: %s: journal incomplete: no run_end event", fs.Arg(0))
	}
	if *asJSON {
		raw, err := p.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(raw))
		return nil
	}
	fmt.Fprint(out, p.Report())
	return nil
}

// planCmd reports per-query compiled-plan vs reference-interpreter timings
// over the benchmark queries, evaluated against the extracted catalogs. The
// compiled plan is the default execution path, so its result is the ground
// truth here too: each query is compiled once and re-evaluated -runs
// times, and the interpreter (the -engine=interp escape hatch) is checked
// against the plan's answer before timing, so the report cannot quietly
// compare different answers.
func planCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	runs := fs.Int("runs", 200, "evaluations per engine per query")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 {
		*runs = 1
	}
	resolve := catalog.Resolver()
	fmt.Fprintf(out, "%-5s %14s %14s %8s\n", "query", "interp ns/op", "plan ns/op", "ratio")
	var totalI, totalP int64
	for _, q := range benchmark.Queries() {
		expr, err := xquery.Parse(q.XQuery)
		if err != nil {
			return fmt.Errorf("q%02d: parse: %w", q.ID, err)
		}
		p, err := plan.CompileQuery(q.XQuery)
		if err != nil {
			return fmt.Errorf("q%02d: compile: %w", q.ID, err)
		}
		ctx := xquery.NewContext(resolve)
		got, gerr := p.Eval(ctx)
		want, werr := xquery.Eval(expr, ctx)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			return fmt.Errorf("q%02d: engines disagree: plan %v vs interpreter %v", q.ID, gerr, werr)
		}
		if gerr == nil && xquery.SequenceString(got) != xquery.SequenceString(want) {
			return fmt.Errorf("q%02d: interpreter disagrees with the plan result", q.ID)
		}
		start := time.Now()
		for i := 0; i < *runs; i++ {
			_, _ = xquery.Eval(expr, ctx)
		}
		interp := time.Since(start).Nanoseconds() / int64(*runs)
		start = time.Now()
		for i := 0; i < *runs; i++ {
			_, _ = p.Eval(ctx)
		}
		planNs := time.Since(start).Nanoseconds() / int64(*runs)
		totalI += interp
		totalP += planNs
		ratio := 0.0
		if planNs > 0 {
			ratio = float64(interp) / float64(planNs)
		}
		fmt.Fprintf(out, "q%02d   %14d %14d %7.2fx\n", q.ID, interp, planNs, ratio)
	}
	ratio := 0.0
	if totalP > 0 {
		ratio = float64(totalI) / float64(totalP)
	}
	fmt.Fprintf(out, "total %14d %14d %7.2fx\n", totalI, totalP, ratio)
	return nil
}

// compareCmd gates a fresh chaos artifact against the committed one.
func compareCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	basePath := fs.String("baseline", "", "committed BENCH_chaos.json")
	freshPath := fs.String("fresh", "", "freshly measured chaos artifact")
	tolerance := fs.Float64("tolerance", 0.30, "allowed relative slowdown (0.30 = +30%)")
	slowdown := fs.Float64("slowdown", 1.0, "multiply fresh numbers (gate self-test)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *basePath == "" || *freshPath == "" {
		return fmt.Errorf("compare: need -baseline and -fresh")
	}
	base, err := readReport(*basePath)
	if err != nil {
		return err
	}
	fresh, err := readReport(*freshPath)
	if err != nil {
		return err
	}
	if base.Suite != fresh.Suite {
		return fmt.Errorf("suite mismatch: baseline %q vs fresh %q", base.Suite, fresh.Suite)
	}
	if base.Suite != "benchmark_chaos" {
		return fmt.Errorf("unknown suite %q", base.Suite)
	}
	regressions := compareChaos(base, fresh, *tolerance, *slowdown, out)
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(out, "REGRESSION: %s\n", r)
		}
		return fmt.Errorf("%d metric(s) regressed beyond +%.0f%%", len(regressions), *tolerance*100)
	}
	fmt.Fprintf(out, "compare: %s within +%.0f%% of baseline\n", base.Suite, *tolerance*100)
	return nil
}

// readReport reads a BENCH_*.json artifact.
func readReport(path string) (*benchmark.Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchmark.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// check appends a regression line if fresh exceeds base by more than tol,
// and always prints the comparison row.
func check(out io.Writer, regressions []string, name string, base, fresh, tol float64, unit string) []string {
	limit := base * (1 + tol)
	status := "ok"
	if fresh > limit {
		status = "REGRESSED"
		regressions = append(regressions,
			fmt.Sprintf("%s: %.3f%s vs baseline %.3f%s (limit %.3f%s)", name, fresh, unit, base, unit, limit, unit))
	}
	delta := 0.0
	if base > 0 {
		delta = (fresh - base) / base * 100
	}
	fmt.Fprintf(out, "  %-34s %12.3f%s %12.3f%s %+7.1f%% %s\n", name, base, unit, fresh, unit, delta, status)
	return regressions
}

// compareChaos prints one row per configuration and the speedup, and
// returns a line for each that regressed beyond tol.
func compareChaos(base, fresh *benchmark.Report, tol, slowdown float64, out io.Writer) []string {
	freshBy := map[string]benchmark.Timing{}
	for _, tm := range fresh.Timings {
		freshBy[tm.Name] = tm
	}
	fmt.Fprintf(out, "chaos compare: baseline vs fresh ns/op\n")
	var regressions []string
	for _, tm := range base.Timings {
		ft, ok := freshBy[tm.Name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: missing from fresh run", tm.Name))
			continue
		}
		regressions = check(out, regressions, tm.Name,
			float64(tm.NsPerOp)/1e6, float64(ft.NsPerOp)/1e6*slowdown, tol, "ms")
	}
	// Speedup is a ratio where higher is better: losing more than the
	// tolerance's share of the baseline speedup is a regression even if no
	// single row tripped its own limit.
	if base.Speedup > 0 {
		floor := base.Speedup * (1 - tol)
		status := "ok"
		if fresh.Speedup < floor {
			status = "REGRESSED"
			regressions = append(regressions,
				fmt.Sprintf("speedup: %.2fx vs baseline %.2fx (floor %.2fx)", fresh.Speedup, base.Speedup, floor))
		}
		fmt.Fprintf(out, "  %-34s %13.2fx %13.2fx         %s\n", "speedup", base.Speedup, fresh.Speedup, status)
	}
	return regressions
}
