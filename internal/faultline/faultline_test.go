package faultline

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"thalia/internal/integration"
	"thalia/internal/telemetry"
)

// fakeSystem answers every query with two fixed rows.
type fakeSystem struct {
	name  string
	calls int
}

func (f *fakeSystem) Name() string        { return f.name }
func (f *fakeSystem) Description() string { return "fake" }
func (f *fakeSystem) Answer(req integration.Request) (*integration.Answer, error) {
	f.calls++
	return &integration.Answer{Rows: []integration.Row{
		{"source": "a", "course": "CS1", "title": "Intro"},
		{"source": "b", "course": "CS2", "title": "Algorithms"},
	}}, nil
}

func req(query, attempt int) integration.Request {
	r := integration.Request{QueryID: query}
	if attempt > 0 {
		return r.WithContext(integration.WithAttempt(r.Context(), attempt))
	}
	return r
}

func TestParsePlanRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"unknown kind":     `{"seed":1,"rules":[{"kind":"gremlins"}]}`,
		"unknown field":    `{"seed":1,"rules":[{"kind":"latency","surprise":1}]}`,
		"bad probability":  `{"seed":1,"rules":[{"kind":"latency","probability":2}]}`,
		"negative latency": `{"seed":1,"rules":[{"kind":"latency","latency_ms":-5}]}`,
		"query range":      `{"seed":1,"rules":[{"kind":"transient","query":13}]}`,
		"fraction range":   `{"seed":1,"rules":[{"kind":"truncate","fraction":1.0}]}`,
		"negative chunk":   `{"seed":1,"rules":[{"kind":"drip","chunk":-1}]}`,
		"negative attempt": `{"seed":1,"rules":[{"kind":"transient","attempt":-1}]}`,
		"trailing data":    `{"seed":1} {"seed":2}`,
		"not json":         `]]`,
	}
	for name, in := range cases {
		if _, err := ParsePlan([]byte(in)); err == nil {
			t.Errorf("%s: ParsePlan accepted %q", name, in)
		}
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	p := StandardMix(42)
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePlan(data)
	if err != nil {
		t.Fatalf("ParsePlan(Marshal(p)): %v", err)
	}
	data2, err := back.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("round trip not canonical:\n%s\nvs\n%s", data, data2)
	}
}

func TestKindsSortedAndDescribed(t *testing.T) {
	kinds := Kinds()
	if len(kinds) != 5 {
		t.Fatalf("Kinds() = %v, want 5 kinds", kinds)
	}
	for i := 1; i < len(kinds); i++ {
		if kinds[i-1] >= kinds[i] {
			t.Fatalf("Kinds() not sorted: %v", kinds)
		}
	}
}

// Match must be a pure function of (seed, rules, coordinates): identical
// inputs always fire identical rules, and different seeds give different
// (but internally consistent) mixes.
func TestMatchDeterministic(t *testing.T) {
	p := StandardMix(7)
	for q := 1; q <= 12; q++ {
		for a := 1; a <= 3; a++ {
			first := p.Match("Cohera", q, a)
			for i := 0; i < 10; i++ {
				again := p.Match("Cohera", q, a)
				if len(again) != len(first) {
					t.Fatalf("q%d attempt %d: match count changed across calls", q, a)
				}
				for j := range again {
					if again[j] != first[j] {
						t.Fatalf("q%d attempt %d: matched rules changed across calls", q, a)
					}
				}
			}
		}
	}
}

func TestMatchFields(t *testing.T) {
	p := &Plan{Rules: []Rule{
		{Kind: KindTransient, System: "A", Query: 3, Attempt: 1},
	}}
	if got := p.Match("A", 3, 1); len(got) != 1 {
		t.Fatalf("exact coordinates did not match: %v", got)
	}
	for _, miss := range [][3]interface{}{{"B", 3, 1}, {"A", 4, 1}, {"A", 3, 2}} {
		if got := p.Match(miss[0].(string), miss[1].(int), miss[2].(int)); len(got) != 0 {
			t.Fatalf("coordinates %v matched, want no match", miss)
		}
	}
	var nilPlan *Plan
	if got := nilPlan.Match("A", 1, 1); got != nil {
		t.Fatal("nil plan matched rules")
	}
}

// Probability spread: over all 12 queries × 4 systems × 3 attempts, a 20%
// rule should fire sometimes and not always — the hash must not collapse.
func TestChanceSpread(t *testing.T) {
	p := &Plan{Seed: 99, Rules: []Rule{{Kind: KindTransient, Probability: 0.2}}}
	fired := 0
	total := 0
	for _, sys := range []string{"Cohera", "IWIZ", "UF Full Mediator", "Declarative Mediator"} {
		for q := 1; q <= 12; q++ {
			for a := 1; a <= 3; a++ {
				total++
				if len(p.Match(sys, q, a)) > 0 {
					fired++
				}
			}
		}
	}
	if fired == 0 || fired == total {
		t.Fatalf("20%% rule fired %d/%d times — hash has no spread", fired, total)
	}
	if fired > total/2 {
		t.Fatalf("20%% rule fired %d/%d times — far above its probability", fired, total)
	}
}

func TestWrapInjectsTransientAndPermanent(t *testing.T) {
	reg := telemetry.NewRegistry()
	sys := faultWrap(t, &Plan{Rules: []Rule{
		{Kind: KindTransient, Attempt: 1},
		{Kind: KindPermanent, Attempt: 2},
	}}, reg)

	_, err := sys.Answer(req(1, 1))
	var inj *InjectedError
	if !errors.As(err, &inj) || inj.Kind != KindTransient {
		t.Fatalf("attempt 1 error = %v, want injected transient", err)
	}
	if !integration.Transient(err) {
		t.Fatal("transient fault not classified transient")
	}
	_, err = sys.Answer(req(1, 2))
	if !errors.As(err, &inj) || inj.Kind != KindPermanent {
		t.Fatalf("attempt 2 error = %v, want injected permanent", err)
	}
	if integration.Transient(err) {
		t.Fatal("permanent fault classified transient")
	}
	if ans, err := sys.Answer(req(1, 3)); err != nil || len(ans.Rows) != 2 {
		t.Fatalf("attempt 3 = (%v, %v), want the clean answer", ans, err)
	}
	snap := reg.Snapshot()
	found := 0
	for _, c := range snap.Counters {
		if c.Name == MetricInjected {
			found++
		}
	}
	if found == 0 {
		t.Fatal("no faults_injected_total series recorded")
	}
}

func TestWrapInjectsLatency(t *testing.T) {
	sys := faultWrap(t, &Plan{Rules: []Rule{{Kind: KindLatency, LatencyMS: 30}}}, nil)
	start := time.Now()
	if _, err := sys.Answer(req(1, 1)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("latency fault added only %v, want ≥ ~30ms", d)
	}
}

func TestWrapInjectsTruncate(t *testing.T) {
	// A tiny keep-fraction cuts inside the first element: the re-parse
	// fails and the attempt dies with a retryable injected error.
	sys := faultWrap(t, &Plan{Rules: []Rule{{Kind: KindTruncate, Fraction: 0.05}}}, nil)
	_, err := sys.Answer(req(1, 1))
	var inj *InjectedError
	if !errors.As(err, &inj) || inj.Kind != KindTruncate {
		t.Fatalf("error = %v, want injected truncate", err)
	}
	if !inj.Transient() {
		t.Fatal("truncate fault must be retryable")
	}
	// A generous fraction keeps whole leading rows: the answer survives
	// but loses tail rows — the silent partial-result flavor.
	sys = faultWrap(t, &Plan{Rules: []Rule{{Kind: KindTruncate, Fraction: 0.6}}}, nil)
	ans, err := sys.Answer(req(1, 1))
	if err != nil {
		// Depending on where 60% lands the parse may still fail; both
		// outcomes are valid truncation behaviours.
		if !errors.As(err, &inj) || inj.Kind != KindTruncate {
			t.Fatalf("error = %v, want injected truncate", err)
		}
	} else if len(ans.Rows) >= 2 {
		t.Fatalf("truncate kept all %d rows", len(ans.Rows))
	}
}

func TestWrapInjectsDrip(t *testing.T) {
	sys := faultWrap(t, &Plan{Rules: []Rule{{Kind: KindDrip, Chunk: 16, LatencyMS: 1}}}, nil)
	start := time.Now()
	ans, err := sys.Answer(req(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 2 {
		t.Fatalf("drip corrupted the rows: %v", ans.Rows)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("drip fault added no delay")
	}
}

// faultWrap wraps a fresh fake system and verifies the decorator preserves
// the System identity surface.
func faultWrap(t *testing.T, p *Plan, reg *telemetry.Registry) integration.System {
	t.Helper()
	inner := &fakeSystem{name: "Fake"}
	sys := Wrap(inner, p, reg)
	if sys.Name() != inner.Name() || sys.Description() != inner.Description() {
		t.Fatal("Wrap changed the system's identity")
	}
	return sys
}

// Without a stamped attempt, the wrapper falls back to counting calls per
// query so attempt-keyed rules still advance.
func TestWrapFallbackAttemptCounter(t *testing.T) {
	sys := faultWrap(t, &Plan{Rules: []Rule{{Kind: KindTransient, Attempt: 1}}}, nil)
	if _, err := sys.Answer(req(2, 0)); err == nil {
		t.Fatal("first bare call did not hit the attempt-1 fault")
	}
	if _, err := sys.Answer(req(2, 0)); err != nil {
		t.Fatalf("second bare call = %v, want success (fallback attempt advanced)", err)
	}
}

func TestDripReader(t *testing.T) {
	payload := []byte(strings.Repeat("x", 1000))
	var waits int
	d := NewDripReader(payload, 100, time.Millisecond)
	d.sleep = func(time.Duration) { waits++ }
	var data []byte
	buf := make([]byte, 100)
	for {
		n, err := d.Read(buf)
		data = append(data, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if string(data) != string(payload) {
		t.Fatal("drip reader corrupted the payload")
	}
	if waits != 10 {
		t.Fatalf("paused %d times, want 10 (1000 bytes / 100 per chunk)", waits)
	}
}

func TestTruncate(t *testing.T) {
	data := []byte("0123456789")
	if got := Truncate(data, 0.5); string(got) != "01234" {
		t.Fatalf("Truncate 0.5 = %q", got)
	}
	if got := Truncate(data, 0); len(got) != 5 {
		t.Fatalf("default fraction kept %d bytes, want 5", len(got))
	}
	if got := Truncate(data, 0.99); len(got) != len(data)-1 {
		t.Fatalf("near-1 fraction kept %d bytes, want %d (always a real cut)", len(got), len(data)-1)
	}
	if got := Truncate([]byte{}, 0.5); len(got) != 0 {
		t.Fatal("truncating nothing returned something")
	}
}

// Jitter must be deterministic and uniform-ish in [0,1).
func TestJitterDeterministicSequence(t *testing.T) {
	want := []float64{
		Jitter(1, "Cohera", 1, 1),
		Jitter(1, "Cohera", 1, 2),
		Jitter(1, "Cohera", 2, 1),
		Jitter(1, "IWIZ", 1, 1),
	}
	for i := 0; i < 5; i++ {
		got := []float64{
			Jitter(1, "Cohera", 1, 1),
			Jitter(1, "Cohera", 1, 2),
			Jitter(1, "Cohera", 2, 1),
			Jitter(1, "IWIZ", 1, 1),
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("jitter %d changed across calls: %v vs %v", j, got[j], want[j])
			}
		}
	}
	seen := map[float64]bool{}
	for _, v := range want {
		if v < 0 || v >= 1 {
			t.Fatalf("jitter %v outside [0,1)", v)
		}
		seen[v] = true
	}
	if len(seen) < 3 {
		t.Fatalf("jitter values collapse: %v", want)
	}
}
