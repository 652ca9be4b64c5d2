package scenario

import (
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"thalia/internal/benchmark"
	"thalia/internal/faultline"
	"thalia/internal/hetero"
	"thalia/internal/telemetry"
	"thalia/internal/xmldom"
	"thalia/internal/xquery"
	"thalia/internal/xquery/plan"
)

// streamHeapCeiling is the live-heap growth budget for the 5000-source
// run. The workload necessarily holds O(sources) query metadata and
// scorecard rows (a few MB); if released challenge documents accumulated
// instead of dying — O(sources) documents at ~50KB each is ~250MB — the
// run blows through this ceiling many times over.
const streamHeapCeiling = 128 << 20

// TestStreamingMemoryBounded is the bounded-memory regression gate: a
// 5000-source evaluation must keep peak live heap O(pool), not O(sources),
// and the DocSource high-water mark must never exceed the worker pool.
func TestStreamingMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("5000-source evaluation; skipped with -short")
	}
	const sources, pool = 5000, 8
	sc, err := New(Params{Sources: sources, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	med := sc.NewMediator()
	r := benchmark.NewStreamingRunner(sc.Queries())
	r.Concurrency = pool

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	var peak atomic.Uint64
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > peak.Load() {
					peak.Store(m.HeapAlloc)
				}
			}
		}
	}()

	cards, err := r.EvaluateAll(med)
	close(done)
	if err != nil {
		t.Fatal(err)
	}
	if c := cards[0].CorrectCount(); c != sources {
		t.Fatalf("%d/%d correct", c, sources)
	}

	builds, live, highWater := med.Docs().Stats()
	if builds != sources {
		t.Errorf("builds = %d, want %d (one per source)", builds, sources)
	}
	if live != 0 {
		t.Errorf("%d documents still live after the run", live)
	}
	if highWater > pool {
		t.Errorf("DocSource high water %d exceeds pool %d: streaming bound broken", highWater, pool)
	}
	if grew := int64(peak.Load()) - int64(before.HeapAlloc); grew > streamHeapCeiling {
		t.Errorf("peak live heap grew %d MB, budget %d MB: documents are accumulating",
			grew>>20, int64(streamHeapCeiling)>>20)
	}
}

// TestStreamingDigestPinned pins the streaming scorecard of a 500-source
// uniform scenario at seed 42 to a committed digest at pools 1, 2 and 8,
// once as the runner streams it and once with released arenas poisoned. A
// cell that read its document after the last Release, or a recycled arena
// that rendered differently from a fresh one, would move the digest.
func TestStreamingDigestPinned(t *testing.T) {
	golden, err := os.ReadFile("testdata/stream500.digest")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(golden))
	for _, poison := range []bool{false, true} {
		for _, pool := range []int{1, 2, 8} {
			sc, err := New(Params{Sources: 500, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			med := sc.NewMediator()
			med.docs.poison = poison
			r := benchmark.NewStreamingRunner(sc.Queries())
			r.Concurrency = pool
			cards, err := r.EvaluateAll(med)
			if err != nil {
				t.Fatalf("pool %d, poison %v: %v", pool, poison, err)
			}
			if got := benchmark.ScorecardDigest(cards); got != want {
				t.Errorf("pool %d, poison %v: scorecard digest %s, want %s", pool, poison, got, want)
			}
		}
	}
}

// compileAllocBudget caps the allocations of compiling one generated
// challenge query, the plan each streaming cell compiles once: 23 to 37
// with the plan dump rendered only when Dump asks for it, 49 to 78 when
// every Compile rendered it.
const compileAllocBudget = 40

// TestCompileAllocationBudget pins plan.Compile's allocations for the
// challenge query of each of the twelve families.
func TestCompileAllocationBudget(t *testing.T) {
	for _, c := range hetero.AllCases() {
		sc, err := New(Params{Sources: 1, Seed: 7, Mix: Mix{c: 1}})
		if err != nil {
			t.Fatal(err)
		}
		e, err := xquery.Parse(sc.Spec(0).ChallengeXQuery)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := plan.Compile(e); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > compileAllocBudget {
			t.Errorf("case %d: %.0f allocations per Compile, budget %d", int(c), allocs, compileAllocBudget)
		}
	}
}

// TestReleasedDocumentPoisoned checks the poison itself: after the last
// Release, every element name and text of the document is the sentinel,
// and the next Acquire renders a whole document into the recycled arena.
func TestReleasedDocumentPoisoned(t *testing.T) {
	sc, err := New(Params{Sources: 4, Seed: 3, Size: 3})
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDocSource(sc)
	ds.poison = true
	want := sc.ChallengeXML(1)
	doc, _ := ds.Acquire(1)
	ds.Acquire(1)
	ds.Release(1)
	if doc.Root.Name != "catalog" {
		t.Fatalf("document poisoned while a reference is held: root %q", doc.Root.Name)
	}
	ds.Release(1)
	var check func(e *xmldom.Element)
	check = func(e *xmldom.Element) {
		if !strings.Contains(e.Name, "released") {
			t.Fatalf("released element keeps its name %q", e.Name)
		}
		for _, ch := range e.Children {
			switch n := ch.(type) {
			case *xmldom.Element:
				check(n)
			case *xmldom.Text:
				if !strings.Contains(n.Data, "released") {
					t.Fatalf("released text keeps its data %q", n.Data)
				}
			}
		}
	}
	check(doc.Root)
	again, _ := ds.Acquire(1)
	defer ds.Release(1)
	if again.Root != doc.Root {
		t.Errorf("the next Acquire did not render into the recycled arena")
	}
	var got strings.Builder
	if err := again.WriteTo(&got, xmldom.WriteOptions{Indent: "  "}); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Errorf("document rendered into a poisoned arena differs:\n%s\n--- want ---\n%s", got.String(), want)
	}
}

// TestScenarioChaosDegradesNeverAborts extends the chaos conformance
// contract to generated scenarios: a fault-wrapped mediator under the
// resilience policy must finish the run (degraded cells, never an abort)
// and two same-seed runs must render byte-identical chaos scorecards.
func TestScenarioChaosDegradesNeverAborts(t *testing.T) {
	plan := &faultline.Plan{Seed: 1337, Rules: []faultline.Rule{
		{Kind: faultline.KindTransient, Probability: 0.30},
		{Kind: faultline.KindPermanent, Probability: 0.05},
	}}
	var renders []string
	for run := 0; run < 2; run++ {
		sc, err := New(Params{Sources: 20, Seed: 13, Size: 3})
		if err != nil {
			t.Fatal(err)
		}
		r := benchmark.NewStreamingRunner(sc.Queries())
		r.Concurrency = 4
		r.Resilience = benchmark.DefaultResilience(1337)
		cards, err := r.EvaluateAll(faultline.Wrap(sc.NewMediator(), plan, nil))
		if err != nil {
			t.Fatalf("run %d: chaos run aborted: %v", run, err)
		}
		renders = append(renders, cards[0].Format()+benchmark.FormatChaos(cards))
	}
	if renders[0] != renders[1] {
		t.Errorf("same-seed chaos runs diverged\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			renders[0], renders[1])
	}
}

// TestEvalLatencySeriesBoundedByClass pins the cardinality of
// engine_eval_seconds on generated workloads: cells are labelled by their
// heterogeneity class, not by query number, so a scenario ten times larger
// creates no new series — one per class present, at most twelve per system.
func TestEvalLatencySeriesBoundedByClass(t *testing.T) {
	series := func(sources int) (got, classes int) {
		sc, err := New(Params{Sources: sources, Seed: 7, Size: 2})
		if err != nil {
			t.Fatal(err)
		}
		present := map[int]bool{}
		for i := 0; i < sources; i++ {
			present[int(sc.Case(i))] = true
		}
		reg := telemetry.NewRegistry()
		r := benchmark.NewStreamingRunner(sc.Queries())
		r.Concurrency = 2
		r.Telemetry = reg
		if _, err := r.EvaluateAll(sc.NewMediator()); err != nil {
			t.Fatal(err)
		}
		for _, h := range reg.Snapshot().Histograms {
			if h.Name == benchmark.MetricEvalLatency {
				got++
			}
		}
		return got, len(present)
	}
	small, smallClasses := series(24)
	large, largeClasses := series(240)
	if small != smallClasses || large != largeClasses {
		t.Errorf("eval latency series = %d at N=24 and %d at N=240, want one per class present (%d and %d)",
			small, large, smallClasses, largeClasses)
	}
	if small != large || large > 12 {
		t.Errorf("eval latency series = %d at N=24 and %d at N=240, want equal and at most 12", small, large)
	}
}
