package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The metrics registry: typed counter, gauge, and histogram families with
// deterministic fixed bucket bounds, rendered in the Prometheus text
// exposition format. It complements the flat Counters snapshot with
// *distributions* — per-task durations, per-partition output sizes,
// candidate-set sizes per pass — which is what the skew and critical-path
// analysis needs and a single total cannot provide.
//
// Design constraints, in order:
//
//   - Deterministic: bucket bounds are fixed at construction, never adaptive,
//     so two identical runs export byte-identical metric text.
//   - Allocation-free observation: once a family and series exist, Observe /
//     Add / Set take a mutex and touch preallocated memory only, so metrics
//     never perturb the allocation behaviour of the Pass 2 hot path.
//
// A nil *Registry (and nil metric handles) is valid and records nothing,
// mirroring the nil-Recorder convention.

// Fixed deterministic bucket bounds shared by the standard instruments.
var (
	// DurationBuckets covers virtual task/stage durations in seconds, from
	// sub-millisecond Spark-style tasks to multi-minute Hadoop stages.
	DurationBuckets = []float64{
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
		1, 2.5, 5, 10, 30, 60, 120, 300,
	}
	// SizeBuckets covers byte volumes (partition outputs, shuffle payloads).
	SizeBuckets = []float64{
		256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
		1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
	}
	// CountBuckets covers item counts (rows per partition, candidates per
	// pass).
	CountBuckets = []float64{
		1, 2, 5, 10, 25, 50, 100, 250, 500,
		1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
	}
)

// Registry holds metric families keyed by name. Safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric with a fixed type, label schema, and (for
// histograms) bucket bounds. Series are the per-label-value instances.
type family struct {
	name       string
	help       string
	typ        string // "counter", "gauge", or "histogram"
	labelNames []string
	bounds     []float64
	series     map[string]*series
}

// series is one (family, label values) instance.
type series struct {
	labels []string // values aligned with family.labelNames
	value  float64  // counter / gauge
	counts []uint64 // histogram: per-bucket (non-cumulative), +1 overflow
	sum    float64  // histogram
	count  uint64   // histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{families: map[string]*family{}} }

// get returns the series for (name, labels...), creating family and series
// as needed. labels alternate key, value. Inconsistent reuse of a family
// name (different type, label schema, or bounds) panics: it is a programmer
// error that would silently corrupt the export.
func (g *Registry) get(name, help, typ string, bounds []float64, labels []string) *series {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %s: odd label list %q", name, labels))
	}
	names := make([]string, 0, len(labels)/2)
	values := make([]string, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		names = append(names, labels[i])
		values = append(values, labels[i+1])
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	f := g.families[name]
	if f == nil {
		f = &family{
			name: name, help: help, typ: typ,
			labelNames: names, bounds: bounds,
			series: map[string]*series{},
		}
		g.families[name] = f
	} else if f.typ != typ || !equalStrings(f.labelNames, names) || !equalFloats(f.bounds, bounds) {
		panic(fmt.Sprintf("obs: metric %s redeclared with a different schema", name))
	}
	key := strings.Join(values, "\xff")
	s := f.series[key]
	if s == nil {
		s = &series{labels: values}
		if typ == "histogram" {
			s.counts = make([]uint64, len(bounds)+1)
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter series for name and the given label pairs,
// creating it at zero if absent.
func (g *Registry) Counter(name, help string, labels ...string) *Counter {
	if g == nil {
		return nil
	}
	return &Counter{g: g, s: g.get(name, help, "counter", nil, labels)}
}

// Gauge returns the gauge series for name and the given label pairs.
func (g *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if g == nil {
		return nil
	}
	return &Gauge{g: g, s: g.get(name, help, "gauge", nil, labels)}
}

// Histogram returns the histogram series for name with the given fixed
// bucket bounds (ascending) and label pairs.
func (g *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if g == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: metric %s: bucket bounds not ascending", name))
		}
	}
	s := g.get(name, help, "histogram", bounds, labels)
	g.mu.Lock()
	f := g.families[name]
	g.mu.Unlock()
	return &Histogram{g: g, f: f, s: s}
}

// Counter is a monotonically increasing series.
type Counter struct {
	g *Registry
	s *series
}

// Add increases the counter by v (negative deltas are ignored).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	c.g.mu.Lock()
	c.s.value += v
	c.g.mu.Unlock()
}

// Value returns the current counter value.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.g.mu.Lock()
	defer c.g.mu.Unlock()
	return c.s.value
}

// Gauge is a series that can move in both directions.
type Gauge struct {
	g *Registry
	s *series
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.g.mu.Lock()
	g.s.value = v
	g.g.mu.Unlock()
}

// Add adjusts the gauge by the signed delta v.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.g.mu.Lock()
	g.s.value += v
	g.g.mu.Unlock()
}

// Histogram is a distribution series with fixed buckets.
type Histogram struct {
	g *Registry
	f *family
	s *series
}

// Observe records one sample. Allocation-free: the bucket array is
// preallocated at construction.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.g.mu.Lock()
	s := h.s
	i := sort.SearchFloat64s(h.f.bounds, v) // first bound >= v
	s.counts[i]++
	s.sum += v
	s.count++
	h.g.mu.Unlock()
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), sorted by family name and series labels so that
// identical registries export identical bytes.
func (g *Registry) WritePrometheus(w io.Writer) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	names := make([]string, 0, len(g.families))
	for name := range g.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := g.families[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	if f.typ != "histogram" {
		_, err := fmt.Fprintf(w, "%s%s %s\n",
			f.name, labelString(f.labelNames, s.labels, "", ""), formatFloat(s.value))
		return err
	}
	var cum uint64
	for i, bound := range f.bounds {
		cum += s.counts[i]
		le := formatFloat(bound)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, labelString(f.labelNames, s.labels, "le", le), cum); err != nil {
			return err
		}
	}
	cum += s.counts[len(f.bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		f.name, labelString(f.labelNames, s.labels, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		f.name, labelString(f.labelNames, s.labels, "", ""), formatFloat(s.sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n",
		f.name, labelString(f.labelNames, s.labels, "", ""), s.count)
	return err
}

// labelString renders {k="v",...}, optionally appending one extra pair
// (the histogram le label); empty when there are no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
