// Package telemetry is the reproduction's hand-rolled metrics layer: a
// dependency-free registry of atomic counters, gauges and fixed-bucket
// latency histograms with quantile estimation, all labeled series. Spans
// are not kept here: the program has one span model, package explain.
//
// THALIA is a measurement harness, so the harness itself must be
// measurable: the benchmark engine records per-cell queue-wait and
// evaluation latency through a Registry, and the web site exposes the same
// registry at /metrics in both JSON and Prometheus text form. Everything
// here is stdlib-only and safe for concurrent use; snapshots are rendered
// in sorted order so test output and scrapes are deterministic.
package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key=value dimension of a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// seriesKey renders name plus sorted labels into the registry's map key.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range sortLabels(labels) {
		b.WriteByte('|')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// sortLabels returns a copy of labels in key order.
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Registry holds all metric series. The zero value is not useful; construct
// with NewRegistry. All methods are safe for concurrent use; series are
// created on first touch and live for the registry's lifetime.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the counter series for name+labels, creating it on first
// use. Safe to call on every increment; the lookup is a read-locked map hit.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	key := seriesKey(name, labels)
	r.mu.RLock()
	c, ok := r.counters[key]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[key]; ok {
		return c
	}
	c = &Counter{name: name, labels: sortLabels(labels)}
	r.counters[key] = c
	return c
}

// Gauge returns the gauge series for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	key := seriesKey(name, labels)
	r.mu.RLock()
	g, ok := r.gauges[key]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[key]; ok {
		return g
	}
	g = &Gauge{name: name, labels: sortLabels(labels)}
	r.gauges[key] = g
	return g
}

// Histogram returns the histogram series for name+labels, creating it with
// the default latency buckets on first use. To choose custom buckets, use
// HistogramBuckets for the first touch; later touches reuse the series.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.HistogramBuckets(name, nil, labels...)
}

// HistogramBuckets returns the histogram series for name+labels, creating
// it with the given ascending upper bounds (nil means DefaultBuckets). An
// existing series keeps its original buckets.
func (r *Registry) HistogramBuckets(name string, bounds []float64, labels ...Label) *Histogram {
	key := seriesKey(name, labels)
	r.mu.RLock()
	h, ok := r.histograms[key]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[key]; ok {
		return h
	}
	h = newHistogram(name, sortLabels(labels), bounds)
	r.histograms[key] = h
	return h
}

// Counter is a monotonically increasing integer series.
type Counter struct {
	name   string
	labels []Label
	v      atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative deltas are ignored — counters only go up.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer series that can go up and down (pool sizes, busy
// workers, queue depths).
type Gauge struct {
	name   string
	labels []Label
	v      atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultBuckets are the histogram upper bounds used when none are given:
// exponential-ish latency buckets in seconds from 100µs to 10s, chosen to
// bracket both in-process handler latencies and multi-second benchmark
// evaluations.
var DefaultBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket distribution series. Observations are
// float64s (by convention seconds); counts per bucket, the running sum and
// the total count are all atomics, so Observe never blocks Observe.
type Histogram struct {
	name    string
	labels  []Label
	bounds  []float64 // ascending upper bounds; implicit +Inf bucket after
	counts  []atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
	count   atomic.Int64
}

func newHistogram(name string, labels []Label, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultBuckets
	}
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	return &Histogram{
		name:   name,
		labels: labels,
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, len(bounds) = +Inf
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := floatBits(floatFromBits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 { return floatFromBits(h.sumBits.Load()) }

// Mean returns the arithmetic mean of observations (0 with no data).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// inside the bucket holding the target rank, the same estimate Prometheus's
// histogram_quantile computes. Values beyond the last finite bound are
// reported as that bound. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := int64(0)
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if total == 1 {
		// One observation: every quantile is that sole value. Interpolating
		// inside its bucket would report a position the value never had.
		return h.Sum()
	}
	target := q * float64(total)
	cum := float64(0)
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < target || c == 0 {
			continue
		}
		if i == len(h.bounds) {
			// Overflow bucket: no finite upper edge to interpolate toward.
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		frac := (target - prev) / float64(c)
		return lo + frac*(hi-lo)
	}
	return h.bounds[len(h.bounds)-1]
}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
