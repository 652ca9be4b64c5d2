package benchmark

import (
	"context"
	"sync"
	"testing"

	"thalia/internal/faultline"
	"thalia/internal/integration"
)

// chaosSystems wraps the four real systems in a fresh standard-mix fault
// plan for the given seed.
func chaosSystems(seed int64) []integration.System {
	plan := faultline.StandardMix(seed)
	systems := allSystems()
	wrapped := make([]integration.System, len(systems))
	for i, sys := range systems {
		wrapped[i] = faultline.Wrap(sys, plan, nil)
	}
	return wrapped
}

// renderChaos is the full chaos scorecard surface: the ranked comparison,
// each card, and the per-cell attempt histories.
func renderChaos(cards []*Scorecard) string {
	return renderCards(cards) + FormatChaos(cards)
}

// TestChaosSameSeedByteIdentical is the chaos conformance contract: two runs
// with the same seed — same fault plan, same jittered backoff, same breaker
// policy — produce byte-identical ranked scorecards and attempt histories.
func TestChaosSameSeedByteIdentical(t *testing.T) {
	for _, seed := range []int64{1, 42, 1337} {
		var renders []string
		for run := 0; run < 2; run++ {
			r := &Runner{Queries: Queries(), Concurrency: 4, Resilience: DefaultResilience(seed)}
			cards, err := r.EvaluateAll(chaosSystems(seed)...)
			if err != nil {
				t.Fatalf("seed %d run %d: %v", seed, run, err)
			}
			renders = append(renders, renderChaos(cards))
		}
		if renders[0] != renders[1] {
			t.Errorf("seed %d: two chaos runs diverged\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
				seed, renders[0], renders[1])
		}
	}
}

// TestChaosRenderPinned pins seed 3's chaos surface to a committed golden
// at pools 1, 2 and 8: the four systems under faultline.StandardMix(3)
// with DefaultResilience(3). At this seed the Declarative Mediator fails
// five times in a row across q06-q07, so its breaker opens and sheds q07's
// third attempt and q08's first two. The render holds only if each breaker
// observes its system's cells in query order whatever the pool.
func TestChaosRenderPinned(t *testing.T) {
	want := readGolden(t, "testdata/chaos-seed3.render")
	for _, pool := range []int{1, 2, 8} {
		r := &Runner{Queries: Queries(), Concurrency: pool, Resilience: DefaultResilience(3)}
		cards, err := r.EvaluateAll(chaosSystems(3)...)
		if err != nil {
			t.Fatalf("pool %d: %v", pool, err)
		}
		if got := renderChaos(cards); got != want {
			t.Errorf("pool %d: chaos render differs from testdata/chaos-seed3.render:\n%s", pool, got)
		}
	}
}

// A zero-fault plan plus an active resilience policy must be invisible: the
// ranked scorecards are byte-identical to a bare sequential run.
func TestChaosZeroFaultByteIdentical(t *testing.T) {
	baseline := NewSequentialRunner()
	base, err := baseline.EvaluateAll(allSystems()...)
	if err != nil {
		t.Fatal(err)
	}

	plan := &faultline.Plan{Seed: 7} // no rules: injects nothing
	wrapped := make([]integration.System, 0, 4)
	for _, sys := range allSystems() {
		wrapped = append(wrapped, faultline.Wrap(sys, plan, nil))
	}
	r := &Runner{Queries: Queries(), Concurrency: 4, Resilience: DefaultResilience(7)}
	cards, err := r.EvaluateAll(wrapped...)
	if err != nil {
		t.Fatal(err)
	}

	if renderCards(base) != renderCards(cards) {
		t.Errorf("zero-fault chaos run diverged from bare run\n--- bare ---\n%s\n--- zero-fault ---\n%s",
			renderCards(base), renderCards(cards))
	}
	for _, card := range cards {
		for _, res := range card.Results {
			if res.Degraded {
				t.Errorf("%s q%d degraded under a zero-fault plan", card.System, res.QueryID)
			}
		}
	}
}

// A permanent fault that survives every retry degrades its cell — and only
// its cell. The run still completes with a full ranked scorecard and attempt
// histories everywhere.
func TestChaosDegradedNeverAborts(t *testing.T) {
	plan := &faultline.Plan{Seed: 3, Rules: []faultline.Rule{
		{System: "Cohera", Query: 5, Kind: faultline.KindPermanent, Probability: 1},
	}}
	wrapped := make([]integration.System, 0, 4)
	for _, sys := range allSystems() {
		wrapped = append(wrapped, faultline.Wrap(sys, plan, nil))
	}
	r := &Runner{Queries: Queries(), Concurrency: 4, Resilience: DefaultResilience(3)}
	cards, err := r.EvaluateAll(wrapped...)
	if err != nil {
		t.Fatalf("degraded cell aborted the run: %v", err)
	}
	if len(cards) != 4 {
		t.Fatalf("got %d cards, want 4", len(cards))
	}
	sawDegraded := false
	for _, card := range cards {
		if len(card.Results) != len(Queries()) {
			t.Fatalf("%s: %d results, want %d", card.System, len(card.Results), len(Queries()))
		}
		for _, res := range card.Results {
			if len(res.Attempts) == 0 {
				t.Errorf("%s q%d has no attempt history", card.System, res.QueryID)
			}
			if card.System == "Cohera" && res.QueryID == 5 {
				sawDegraded = res.Degraded
				if len(res.Attempts) != 1 {
					t.Errorf("permanent fault retried: %d attempts", len(res.Attempts))
				}
			} else if res.Degraded {
				t.Errorf("%s q%d degraded without an injected fault", card.System, res.QueryID)
			}
		}
	}
	if !sawDegraded {
		t.Error("targeted cell was not marked degraded")
	}
}

// TestRealSystemsHealAfterInjectedFault pins the all-or-nothing build
// contract at the benchmark level for all four systems: a transient fault on
// every cell's first attempt must leave the retried run byte-identical to a
// fault-free baseline — no partially-built warehouse, database, or catalog
// artifact may leak into the retry.
func TestRealSystemsHealAfterInjectedFault(t *testing.T) {
	baseline := NewSequentialRunner()
	base, err := baseline.EvaluateAll(allSystems()...)
	if err != nil {
		t.Fatal(err)
	}

	plan := &faultline.Plan{Seed: 9, Rules: []faultline.Rule{
		{Attempt: 1, Kind: faultline.KindTransient, Probability: 1},
	}}
	wrapped := make([]integration.System, 0, 4)
	for _, sys := range allSystems() {
		wrapped = append(wrapped, faultline.Wrap(sys, plan, nil))
	}
	r := &Runner{Queries: Queries(), Concurrency: 4, Resilience: DefaultResilience(9)}
	cards, err := r.EvaluateAll(wrapped...)
	if err != nil {
		t.Fatal(err)
	}
	if renderCards(base) != renderCards(cards) {
		t.Errorf("systems did not heal cleanly after a first-attempt fault\n--- baseline ---\n%s\n--- healed ---\n%s",
			renderCards(base), renderCards(cards))
	}
	for _, card := range cards {
		for _, res := range card.Results {
			if res.Degraded {
				t.Errorf("%s q%d degraded, want recovery on attempt 2", card.System, res.QueryID)
			}
			if len(res.Attempts) != 2 {
				t.Errorf("%s q%d: %d attempts, want fail-then-ok", card.System, res.QueryID, len(res.Attempts))
			}
		}
	}
}

// TestChaosStressRace hammers one shared set of fault-wrapped systems with
// concurrent chaos evaluations. Run under -race. Every run must come back
// complete — 4 cards × 12 ordered cells, no lost or duplicated results — and
// render identically to the others (same seed, same plan).
func TestChaosStressRace(t *testing.T) {
	const callers = 8
	const seed = 42
	systems := chaosSystems(seed)

	renders := make([]string, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &Runner{Queries: Queries(), Concurrency: 4, Resilience: DefaultResilience(seed)}
			cards, err := r.EvaluateAllContext(context.Background(), systems...)
			if err != nil {
				errs[i] = err
				return
			}
			if len(cards) != 4 {
				t.Errorf("caller %d: %d cards, want 4", i, len(cards))
				return
			}
			for _, card := range cards {
				if len(card.Results) != len(Queries()) {
					t.Errorf("caller %d: %s has %d results, want %d",
						i, card.System, len(card.Results), len(Queries()))
					return
				}
				for qi, res := range card.Results {
					if res.QueryID != Queries()[qi].ID {
						t.Errorf("caller %d: %s result %d is q%d, want q%d",
							i, card.System, qi, res.QueryID, Queries()[qi].ID)
						return
					}
				}
			}
			renders[i] = renderChaos(cards)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i := 1; i < callers; i++ {
		if renders[i] != renders[0] {
			t.Errorf("caller %d diverged from caller 0 under the same seed", i)
		}
	}
}
