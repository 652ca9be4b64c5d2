// Command thalia-vet is the repository's static-analysis gate. It runs two
// heads and exits non-zero if either reports a finding:
//
// The query/schema head checks the benchmark's ground truth: every query
// parses, every path step resolves against the schemas the catalogs
// publish, variables are bound, functions exist, comparison operands unify
// under the schema, the declarative mediation tables point at real schema
// locations, the testbed sources materialize and validate, and the
// complexity level the reference mediator charges for each query agrees
// with the automatic estimate (or carries a documented waiver).
//
// The Go head type-checks the module with go/types and runs repo-specific
// analyzers. The classic set — determinism, panicpath, errcheck,
// explainkinds, faultkinds — is joined by five dataflow analyzers over a
// shared fact base: ctxflow (context plumbing), lockdiscipline (mutex
// copies and calls under lock), goleak (goroutine termination), mapflow
// (map iteration order reaching serialized output), and telemetrycontract
// (metric label cardinality).
//
// Findings carry stable content-addressed IDs (see internal/analysis) and
// are reconciled against the committed baseline, vet.baseline.json at the
// module root. The baseline is a ratchet: findings not in it fail the run,
// and baseline entries that no longer fire are stale and fail the run too.
//
// Usage:
//
//	thalia-vet [flags] [packages]
//
//	-json             emit findings as JSON instead of text
//	-sarif FILE       also write a SARIF 2.1.0 log to FILE ("-" for stdout)
//	-baseline FILE    baseline file (default vet.baseline.json at module root)
//	-update-baseline  rewrite the baseline to accept the current findings
//	-strict           fail on warnings too, not just errors
//	-list             list the available checks and exit
//	-queries          run only the query/schema head
//	-go               run only the Go head
//
// The packages arguments are go list patterns for the Go head (default
// ./...). Exit status: 0 clean against the baseline, 1 fresh findings or
// stale baseline entries (warnings fail only under -strict), 2 the
// analysis itself failed.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"thalia/internal/analysis"
	"thalia/internal/benchmark"
	"thalia/internal/rewrite"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	sarifOut := flag.String("sarif", "", "also write a SARIF 2.1.0 log to this file (\"-\" for stdout)")
	baselinePath := flag.String("baseline", "", "baseline file (default vet.baseline.json at the module root)")
	updateBaseline := flag.Bool("update-baseline", false, "rewrite the baseline to accept the current findings")
	strict := flag.Bool("strict", false, "fail on warnings too, not just errors")
	list := flag.Bool("list", false, "list the available checks and exit")
	queriesOnly := flag.Bool("queries", false, "run only the query/schema head")
	goOnly := flag.Bool("go", false, "run only the Go analyzers")
	flag.Parse()

	if *list {
		listChecks()
		return
	}
	os.Exit(vet(*jsonOut, *sarifOut, *baselinePath, *updateBaseline, *strict, *queriesOnly, *goOnly, flag.Args()))
}

// vet runs the analysis and reconciles it against the baseline, returning
// the process exit code. Split from main so the deferred-free control flow
// stays testable and obvious.
func vet(jsonOut bool, sarifOut, baselinePath string, updateBaseline, strict, queriesOnly, goOnly bool, patterns []string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "thalia-vet:", err)
		return 2
	}

	root, err := moduleRoot()
	if err != nil {
		return fail(err)
	}
	if baselinePath == "" {
		baselinePath = filepath.Join(root, "vet.baseline.json")
	}

	rep, err := run(root, queriesOnly, goOnly, patterns)
	if err != nil {
		return fail(err)
	}
	rep.Finalize()

	if updateBaseline {
		if err := analysis.WriteBaseline(baselinePath, analysis.NewBaseline(rep.Findings)); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "thalia-vet: baseline %s updated with %d finding(s)\n", baselinePath, len(rep.Findings))
		return 0
	}

	base, err := analysis.LoadBaseline(baselinePath)
	if err != nil {
		return fail(err)
	}
	fresh, suppressed, stale := base.Apply(rep.Findings)

	if sarifOut != "" {
		sarif, err := rep.SARIF(analysis.AllCheckDocs(analysis.DefaultGoAnalyzers()), base.BaselinedIDs())
		if err != nil {
			return fail(err)
		}
		if sarifOut == "-" {
			os.Stdout.Write(sarif)
		} else if err := os.WriteFile(sarifOut, sarif, 0o644); err != nil {
			return fail(err)
		}
	}

	// Reported output covers fresh findings only; baselined ones are
	// accepted debt and show up solely in the SARIF suppressions.
	freshRep := &analysis.Report{Findings: fresh}
	if jsonOut {
		b, err := freshRep.JSON()
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(b))
	} else {
		fmt.Print(freshRep.Text())
		for _, e := range stale {
			fmt.Printf("%s: [%s] baseline entry %s is stale: the finding no longer fires (%s) — remove it from the baseline\n",
				e.File, e.Check, e.ID, e.Message)
		}
		if len(fresh) > 0 || len(stale) > 0 {
			fmt.Fprintf(os.Stderr, "thalia-vet: %d fresh finding(s), %d suppressed by baseline, %d stale baseline entr(ies)\n",
				len(fresh), len(suppressed), len(stale))
		}
	}
	return analysis.ExitCode(fresh, stale, strict)
}

func run(root string, queriesOnly, goOnly bool, patterns []string) (*analysis.Report, error) {
	rep := &analysis.Report{}
	if !goOnly {
		queryHead(rep, root)
	}
	if !queriesOnly {
		if err := goHead(rep, root, patterns); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// queryHead runs the benchmark/schema checks. Locators are best-effort:
// without one the findings lose file positions, not substance.
func queryHead(rep *analysis.Report, root string) {
	qloc, err := analysis.LoadLocator(
		filepath.Join(root, "internal/benchmark/queries.go"), "internal/benchmark/queries.go")
	if err != nil {
		qloc = nil
	}
	queries := benchmark.Queries()
	rep.Add(analysis.CheckQueries(queries, analysis.QueryCheckConfig{Locator: qloc})...)
	rep.Add(analysis.CheckComplexity(queries, nil, nil)...)
	mloc, err := analysis.LoadLocator(
		filepath.Join(root, "internal/rewrite/mappings.go"), "internal/rewrite/mappings.go")
	if err != nil {
		mloc = nil
	}
	rep.Add(analysis.CheckMappings(rewrite.NewMediator(), nil, mloc)...)
	rep.Add(analysis.CheckCatalogs()...)
}

func goHead(rep *analysis.Report, root string, patterns []string) error {
	pkgs, err := analysis.LoadGoPackages(root, patterns...)
	if err != nil {
		return err
	}
	rep.Add(analysis.RunGoAnalyzers(pkgs, analysis.DefaultGoAnalyzers())...)
	return nil
}

// moduleRoot locates the enclosing module's root directory via the go
// command, so thalia-vet works from any subdirectory of the repo.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module")
	}
	return filepath.Dir(gomod), nil
}

func listChecks() {
	var b bytes.Buffer
	b.WriteString("query/schema head:\n")
	for _, c := range analysis.QueryCheckDocs() {
		fmt.Fprintf(&b, "  %-16s %s\n", c.Name, c.Doc)
	}
	b.WriteString("go head:\n")
	for _, a := range analysis.DefaultGoAnalyzers() {
		fmt.Fprintf(&b, "  %-16s %s\n", a.Name, a.Doc)
	}
	fmt.Print(b.String())
}
