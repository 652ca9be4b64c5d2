package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// CounterSnapshot is one counter series in a Snapshot.
type CounterSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// GaugeSnapshot is one gauge series in a Snapshot.
type GaugeSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// HistogramSnapshot is one histogram series in a Snapshot. Quantiles are
// the interpolated estimates of Histogram.Quantile.
type HistogramSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Count  int64             `json:"count"`
	Sum    float64           `json:"sum"`
	Mean   float64           `json:"mean"`
	P50    float64           `json:"p50"`
	P95    float64           `json:"p95"`
	P99    float64           `json:"p99"`
}

// Snapshot is a point-in-time copy of every series in a registry, sorted by
// name then labels so renderings are deterministic.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// Snapshot copies out every series. Counters and gauges are read
// atomically; a histogram snapshot is consistent enough for monitoring but
// is not a linearizable cut across concurrent observers.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.histograms))
	for _, h := range r.histograms {
		hists = append(hists, h)
	}
	r.mu.RUnlock()

	snap := &Snapshot{
		Counters:   []CounterSnapshot{},
		Gauges:     []GaugeSnapshot{},
		Histograms: []HistogramSnapshot{},
	}
	for _, c := range counters {
		snap.Counters = append(snap.Counters, CounterSnapshot{
			Name: c.name, Labels: labelMap(c.labels), Value: c.Value(),
		})
	}
	for _, g := range gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnapshot{
			Name: g.name, Labels: labelMap(g.labels), Value: g.Value(),
		})
	}
	for _, h := range hists {
		snap.Histograms = append(snap.Histograms, HistogramSnapshot{
			Name: h.name, Labels: labelMap(h.labels),
			Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		})
	}
	sort.Slice(snap.Counters, func(i, j int) bool {
		return counterLess(snap.Counters[i], snap.Counters[j])
	})
	sort.Slice(snap.Gauges, func(i, j int) bool {
		return gaugeLess(snap.Gauges[i], snap.Gauges[j])
	})
	sort.Slice(snap.Histograms, func(i, j int) bool {
		return histLess(snap.Histograms[i], snap.Histograms[j])
	})
	return snap
}

func labelSig(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(m[k])
		b.WriteByte(',')
	}
	return b.String()
}

func counterLess(a, b CounterSnapshot) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return labelSig(a.Labels) < labelSig(b.Labels)
}

func gaugeLess(a, b GaugeSnapshot) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return labelSig(a.Labels) < labelSig(b.Labels)
}

func histLess(a, b HistogramSnapshot) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return labelSig(a.Labels) < labelSig(b.Labels)
}

// labelEscaper escapes a label value for the Prometheus text format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabels renders {k="v",...} (empty string for no labels), with an
// optional extra le label appended for histogram buckets.
func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = l.Key + `="` + labelEscaper.Replace(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatFloat renders a float the way the Prometheus text format expects.
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// WritePrometheus renders every series in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per metric family, histogram
// series as cumulative _bucket/_sum/_count. Output order is sorted and
// deterministic. Write errors are reported once at the end.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.histograms))
	for _, h := range r.histograms {
		hists = append(hists, h)
	}
	r.mu.RUnlock()

	sort.Slice(counters, func(i, j int) bool {
		return seriesKey(counters[i].name, counters[i].labels) < seriesKey(counters[j].name, counters[j].labels)
	})
	sort.Slice(gauges, func(i, j int) bool {
		return seriesKey(gauges[i].name, gauges[i].labels) < seriesKey(gauges[j].name, gauges[j].labels)
	})
	sort.Slice(hists, func(i, j int) bool {
		return seriesKey(hists[i].name, hists[i].labels) < seriesKey(hists[j].name, hists[j].labels)
	})

	var b strings.Builder
	typed := map[string]bool{}
	writeType := func(name, kind string) {
		if !typed[name] {
			fmt.Fprintf(&b, "# TYPE %s %s\n", name, kind)
			typed[name] = true
		}
	}
	for _, c := range counters {
		writeType(c.name, "counter")
		fmt.Fprintf(&b, "%s%s %d\n", c.name, promLabels(c.labels), c.Value())
	}
	for _, g := range gauges {
		writeType(g.name, "gauge")
		fmt.Fprintf(&b, "%s%s %d\n", g.name, promLabels(g.labels), g.Value())
	}
	for _, h := range hists {
		writeType(h.name, "histogram")
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(&b, "%s_bucket%s %d\n", h.name,
				promLabels(h.labels, L("le", formatFloat(bound))), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(&b, "%s_bucket%s %d\n", h.name,
			promLabels(h.labels, L("le", "+Inf")), cum)
		fmt.Fprintf(&b, "%s_sum%s %s\n", h.name, promLabels(h.labels), formatFloat(h.Sum()))
		fmt.Fprintf(&b, "%s_count%s %d\n", h.name, promLabels(h.labels), cum)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
