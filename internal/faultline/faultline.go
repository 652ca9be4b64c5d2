// Package faultline is the benchmark's deterministic fault-injection layer.
// THALIA's premise is that integration systems must survive heterogeneous,
// flaky legacy sources — catalogs that respond slowly, drop connections,
// or return truncated pages — yet a benchmark only stays a benchmark if
// its scorecards are reproducible. faultline squares that circle with
// seeded fault plans: a Plan is a list of rules keyed on
// (system, query, attempt), and every probabilistic decision is a pure
// function of the plan seed and those coordinates, never of wall-clock
// time, scheduling order, or a shared RNG stream. Two runs with the same
// plan produce byte-identical outcomes; a zero-rule plan is
// indistinguishable from no plan at all.
//
// The injection point is a decorator: Wrap turns any integration.System
// into a fault-wrapped one without changing the System interface, the
// same idiom the explain recorder uses. The package also supplies the
// resilience half: a count-based circuit breaker (deterministic by
// construction — state advances per decision, not per second) used by the
// benchmark's retry loop.
package faultline

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
)

// Kind names one injectable fault. The thalia-vet faultkinds analyzer
// keeps this vocabulary honest: every Kind declared here must appear as a
// case label in the injector's dispatch switch (an injection site) and in
// at least one test file (a test exercising it).
type Kind string

const (
	// KindLatency adds a fixed delay before the wrapped system answers.
	KindLatency Kind = "latency"
	// KindTransient fails the attempt with a retryable error — the flaky
	// catalog that answers on the second try.
	KindTransient Kind = "transient"
	// KindPermanent fails the attempt with a non-retryable error — the
	// catalog that is simply gone.
	KindPermanent Kind = "permanent"
	// KindTruncate cuts the answer's XML serialization short, modeling a
	// dropped connection mid-document: the re-parse either fails
	// (malformed XML, reported as a retryable error) or silently yields a
	// partial result the scorecard marks incorrect.
	KindTruncate Kind = "truncate"
	// KindDrip serves the answer's XML through a slow chunked reader,
	// modeling a source that dribbles bytes: the data arrives intact but
	// late.
	KindDrip Kind = "drip"
)

// kindInfo maps every declared kind to its one-line description. Plan
// validation resolves kinds through this map (not a switch) so the
// faultkinds analyzer can tell validation apart from injection sites.
var kindInfo = map[Kind]string{
	KindLatency:   "added latency before the answer",
	KindTransient: "retryable transient error",
	KindPermanent: "non-retryable permanent error",
	KindTruncate:  "truncated/malformed answer XML",
	KindDrip:      "slow-drip chunked answer reads",
}

// Kinds returns the declared fault kinds in sorted order.
func Kinds() []Kind {
	out := make([]Kind, 0, len(kindInfo))
	for k := range kindInfo {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Rule is one fault-injection rule. Zero-valued match fields are
// wildcards: a rule with System "" applies to every system, Query 0 to
// every query, Attempt 0 to every attempt. Probability 0 means "always"
// (an unconditional rule); anything in (0,1) is decided per
// (system, query, attempt) by the plan's seeded hash.
type Rule struct {
	// System matches the wrapped system's Name(); "" matches all.
	System string `json:"system,omitempty"`
	// Query matches the benchmark query ID 1-12; 0 matches all.
	Query int `json:"query,omitempty"`
	// Attempt matches the resilience loop's 1-based attempt number;
	// 0 matches all attempts.
	Attempt int `json:"attempt,omitempty"`
	// Kind is the fault to inject.
	Kind Kind `json:"kind"`
	// Probability in (0,1) fires the rule pseudo-randomly but
	// deterministically; 0 (or 1) fires it always.
	Probability float64 `json:"probability,omitempty"`
	// LatencyMS is the delay for latency faults and the per-chunk delay
	// for drip faults, in milliseconds.
	LatencyMS int `json:"latency_ms,omitempty"`
	// Fraction is the kept prefix for truncate faults, in (0,1);
	// 0 means the default 0.5.
	Fraction float64 `json:"fraction,omitempty"`
	// Chunk is the drip read size in bytes; 0 means the default 256.
	Chunk int `json:"chunk,omitempty"`
}

// matches reports whether the rule applies to the coordinates, ignoring
// probability.
func (r Rule) matches(system string, query, attempt int) bool {
	if r.System != "" && r.System != system {
		return false
	}
	if r.Query != 0 && r.Query != query {
		return false
	}
	if r.Attempt != 0 && r.Attempt != attempt {
		return false
	}
	return true
}

// Plan is a seeded, deterministic fault-injection plan.
type Plan struct {
	// Seed drives every probabilistic decision. Two plans with the same
	// seed and rules inject exactly the same faults.
	Seed int64 `json:"seed"`
	// Rules are evaluated in order; all matching delay rules apply, and
	// the first matching failure rule decides the attempt's fate.
	Rules []Rule `json:"rules,omitempty"`
}

// ParsePlan decodes and validates a fault plan from JSON. Unknown fields
// are rejected so a typo'd rule cannot silently become a no-op.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytesReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faultline: parse plan: %w", err)
	}
	// Trailing garbage after the plan object is a malformed file, not an
	// extra document.
	var extra json.RawMessage
	if err := dec.Decode(&extra); err == nil || len(extra) > 0 {
		return nil, fmt.Errorf("faultline: parse plan: trailing data after plan object")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Marshal renders the plan as canonical indented JSON: the shape ParsePlan
// accepts, stable under a parse→marshal round trip.
func (p *Plan) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Digest fingerprints the plan: sha256 over its canonical JSON, prefixed
// and truncated for log-friendliness. Journal run-start events record it so
// a replayed run names the exact fault plan it ran under.
func (p *Plan) Digest() string {
	data, err := p.Marshal()
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("sha256:%x", sum[:8])
}

// Validate checks every rule: known kind, parameters in range.
func (p *Plan) Validate() error {
	for i, r := range p.Rules {
		if _, ok := kindInfo[r.Kind]; !ok {
			return fmt.Errorf("faultline: rule %d: unknown fault kind %q (want one of %v)", i, r.Kind, Kinds())
		}
		if r.Query < 0 || r.Query > 12 {
			return fmt.Errorf("faultline: rule %d: query %d out of range 0-12", i, r.Query)
		}
		if r.Attempt < 0 {
			return fmt.Errorf("faultline: rule %d: negative attempt %d", i, r.Attempt)
		}
		if r.Probability < 0 || r.Probability > 1 {
			return fmt.Errorf("faultline: rule %d: probability %v outside [0,1]", i, r.Probability)
		}
		if r.LatencyMS < 0 {
			return fmt.Errorf("faultline: rule %d: negative latency %dms", i, r.LatencyMS)
		}
		if r.Fraction < 0 || r.Fraction >= 1 {
			return fmt.Errorf("faultline: rule %d: truncate fraction %v outside [0,1)", i, r.Fraction)
		}
		if r.Chunk < 0 {
			return fmt.Errorf("faultline: rule %d: negative drip chunk %d", i, r.Chunk)
		}
	}
	return nil
}

// Match returns the rules that fire for one (system, query, attempt)
// coordinate. The decision is a pure function of the plan — seed, rule
// order, coordinates — so concurrent evaluation order cannot change it.
func (p *Plan) Match(system string, query, attempt int) []Rule {
	if p == nil {
		return nil
	}
	var out []Rule
	for i, r := range p.Rules {
		if !r.matches(system, query, attempt) {
			continue
		}
		if r.Probability > 0 && r.Probability < 1 &&
			chance(p.Seed, i, system, query, attempt) >= r.Probability {
			continue
		}
		out = append(out, r)
	}
	return out
}

// StandardMix is the benchmark's standard chaos workload: mostly-transient
// faults at rates the default resilience policy rides out, plus a rare
// permanent fault that exercises graceful degradation. The same seed
// always produces the same mix; thalia-bench's chaos suite and the CI
// conformance gate both run it.
func StandardMix(seed int64) *Plan {
	return &Plan{Seed: seed, Rules: []Rule{
		{Kind: KindLatency, Probability: 0.30, LatencyMS: 2},
		{Kind: KindTransient, Probability: 0.20},
		{Kind: KindTruncate, Probability: 0.10, Fraction: 0.6},
		{Kind: KindDrip, Probability: 0.15, Chunk: 512, LatencyMS: 1},
		{Kind: KindPermanent, Query: 11, Probability: 0.05},
	}}
}

// chance folds the decision coordinates into a uniform float64 in [0,1),
// splitmix64-style: the deterministic stand-in for a shared RNG stream.
func chance(seed int64, rule int, system string, query, attempt int) float64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	mix := func(v uint64) {
		h ^= v
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
	}
	mix(uint64(rule) + 1)
	for i := 0; i < len(system); i++ {
		mix(uint64(system[i]) + 0x100)
	}
	mix(uint64(query) + 0x10000)
	mix(uint64(attempt) + 0x1000000)
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 33
	// 53 mantissa bits → uniform in [0,1).
	return float64(h>>11) / (1 << 53)
}

// Jitter folds the coordinates into a uniform float64 in [0,1) for the
// resilience policy's deterministic backoff jitter. It shares chance's
// mixer but a distinct domain-separation constant, so fault decisions and
// jitter schedules never correlate.
func Jitter(seed int64, system string, query, attempt int) float64 {
	return chance(seed^0x5bf03635, -1, system, query, attempt)
}
