package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", L("route", "/"))
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("requests_total", L("route", "/")) != c {
		t.Error("same name+labels must return the same series")
	}
	if r.Counter("requests_total", L("route", "/x")) == c {
		t.Error("different labels must return a different series")
	}

	g := r.Gauge("busy_workers")
	g.Set(3)
	g.Inc()
	g.Dec()
	g.Dec()
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %d, want 1", got)
	}
}

func TestSeriesKeyLabelOrderInsensitive(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", L("x", "1"), L("y", "2"))
	b := r.Counter("c", L("y", "2"), L("x", "1"))
	if a != b {
		t.Error("label order must not create a new series")
	}
}

// TestHistogramBucketBoundaries pins the le (less-than-or-equal) bucket
// semantics at the edges: a value exactly on a bound lands in that bound's
// bucket, just above lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	tests := []struct {
		value      float64
		wantBucket int // index into counts; len(bounds) = overflow
	}{
		{0.05, 0},
		{0.1, 0},  // exactly on the first bound: le semantics
		{0.11, 1}, // just above
		{0.2, 1},
		{0.25, 2},
		{0.3, 2},
		{0.31, 3}, // beyond the last finite bound: overflow bucket
		{1e9, 3},
		{0, 0},
		{-1, 0}, // negative latencies cannot happen but must not panic
	}
	for _, tc := range tests {
		h := newHistogram("h", nil, []float64{0.1, 0.2, 0.3})
		h.Observe(tc.value)
		for i := range h.counts {
			want := int64(0)
			if i == tc.wantBucket {
				want = 1
			}
			if got := h.counts[i].Load(); got != want {
				t.Errorf("Observe(%v): bucket[%d] = %d, want %d", tc.value, i, got, want)
			}
		}
	}
}

// TestHistogramQuantiles checks the linear-interpolation estimate against
// hand-computed values on a known distribution.
func TestHistogramQuantiles(t *testing.T) {
	bounds := []float64{10, 20, 30, 40}
	tests := []struct {
		name string
		obs  []float64
		q    float64
		want float64
	}{
		// 10 observations spread uniformly over (0,10]: the median rank (5)
		// falls halfway into the first bucket [0,10].
		{"uniform first bucket", seq(1, 10), 0.5, 5},
		// 4 observations, one per bucket; q=0.5 → rank 2 → top of bucket 2.
		{"one per bucket", []float64{5, 15, 25, 35}, 0.5, 20},
		// q=1 lands at the top of the last occupied bucket.
		{"max", []float64{5, 15}, 1, 20},
		// A single observation reports the sole observed value at every q,
		// not an interpolated bucket position.
		{"single observation", []float64{15}, 0, 15},
		{"single observation median", []float64{15}, 0.5, 15},
		{"single observation max", []float64{15}, 1, 15},
		// q=0 with data interpolates to the bottom of the first occupied bucket.
		{"min", []float64{5, 15}, 0, 0},
		// Values beyond the last bound report the last finite bound.
		{"overflow clamps", []float64{100, 200, 300}, 0.99, 40},
		// 100 observations in bucket (10,20]: p95 → rank 95 → 10 + 0.95*10.
		{"interpolation", fill(15, 100), 0.95, 19.5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			h := newHistogram("h", nil, bounds)
			for _, v := range tc.obs {
				h.Observe(v)
			}
			if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
	h := newHistogram("empty", nil, bounds)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	if got := h.Mean(); got != 0 {
		t.Errorf("empty histogram mean = %v, want 0", got)
	}
}

// seq returns {lo, lo+1, ..., hi} as float64s.
func seq(lo, hi int) []float64 {
	var out []float64
	for i := lo; i <= hi; i++ {
		out = append(out, float64(i))
	}
	return out
}

// fill returns n copies of v.
func fill(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestHistogramSumMeanCount(t *testing.T) {
	h := newHistogram("h", nil, []float64{1, 2})
	for _, v := range []float64{0.5, 1.5, 2.5, 3.5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	if got := h.Sum(); math.Abs(got-8) > 1e-9 {
		t.Errorf("sum = %v, want 8", got)
	}
	if got := h.Mean(); math.Abs(got-2) > 1e-9 {
		t.Errorf("mean = %v, want 2", got)
	}
	h.ObserveDuration(250 * time.Millisecond)
	if got := h.Sum(); math.Abs(got-8.25) > 1e-9 {
		t.Errorf("sum after ObserveDuration = %v, want 8.25", got)
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total", L("k", "2")).Inc()
	r.Counter("a_total", L("k", "1")).Inc()
	r.Gauge("depth").Set(7)
	r.HistogramBuckets("lat", []float64{1, 2}).Observe(1.5)

	s := r.Snapshot()
	if len(s.Counters) != 3 || len(s.Gauges) != 1 || len(s.Histograms) != 1 {
		t.Fatalf("snapshot sizes = %d/%d/%d", len(s.Counters), len(s.Gauges), len(s.Histograms))
	}
	if s.Counters[0].Name != "a_total" || s.Counters[0].Labels["k"] != "1" {
		t.Errorf("counters not sorted: %+v", s.Counters)
	}
	if s.Counters[2].Name != "b_total" || s.Counters[2].Value != 2 {
		t.Errorf("counter value wrong: %+v", s.Counters[2])
	}
	hs := s.Histograms[0]
	if hs.Count != 1 || hs.P50 <= 1 || hs.P50 > 2 {
		t.Errorf("histogram snapshot wrong: %+v", hs)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", L("route", "/"), L("code", "200")).Add(3)
	r.Gauge("busy").Set(2)
	h := r.HistogramBuckets("lat_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE req_total counter",
		`req_total{code="200",route="/"} 3`,
		"# TYPE busy gauge",
		"busy 2",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// The exposition must be byte-identical across renders (sorted output).
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if out != b2.String() {
		t.Error("prometheus output is not deterministic")
	}
}

// TestRegistryConcurrent hammers one registry from 16 goroutines mixing
// series creation, increments, observations and snapshots — run under
// -race this proves the registry's concurrency contract.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const iters = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			label := L("worker", string(rune('a'+g%4)))
			for i := 0; i < iters; i++ {
				r.Counter("ops_total", label).Inc()
				r.Gauge("busy", label).Inc()
				r.Gauge("busy", label).Dec()
				r.Histogram("lat_seconds", label).Observe(float64(i%100) / 1000)
				if i%100 == 0 {
					_ = r.Snapshot()
					_ = r.WritePrometheus(&strings.Builder{})
				}
			}
		}(g)
	}
	wg.Wait()

	total := int64(0)
	for _, c := range r.Snapshot().Counters {
		if c.Name == "ops_total" {
			total += c.Value
		}
	}
	if total != goroutines*iters {
		t.Errorf("ops_total = %d, want %d (lost updates)", total, goroutines*iters)
	}
	for _, h := range r.Snapshot().Histograms {
		if h.Name == "lat_seconds" && h.Count == 0 {
			t.Error("histogram lost all observations")
		}
	}
}
