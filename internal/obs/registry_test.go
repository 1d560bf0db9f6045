package obs

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// checkPrometheusText validates every line of a text-format export: comment
// lines are HELP/TYPE, sample lines parse, histogram buckets are cumulative
// and end with a +Inf bucket matching _count.
func checkPrometheusText(t *testing.T, text string) {
	t.Helper()
	var lastBucket float64
	var lastBucketName string
	infCount := map[string]float64{}
	countVal := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("bad comment line %q", line)
			}
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed sample line %q", line)
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			labels := name[i:]
			name = name[:i]
			if strings.Contains(name, "_bucket") {
				v, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					t.Fatalf("bucket value %q: %v", rest, err)
				}
				series := name + labelsWithoutLe(labels)
				if series != lastBucketName {
					lastBucketName, lastBucket = series, 0
				}
				if v < lastBucket {
					t.Fatalf("bucket counts not cumulative at %q: %v < %v", line, v, lastBucket)
				}
				lastBucket = v
				if strings.Contains(labels, `le="+Inf"`) {
					infCount[series] = v
				}
			}
		}
		if strings.HasSuffix(name, "_count") {
			v, _ := strconv.ParseFloat(rest, 64)
			countVal[strings.TrimSuffix(name, "_count")+"_bucket"+labelsOf(line)] = v
		}
	}
	for series, inf := range infCount {
		want, ok := countVal[series]
		if !ok {
			t.Fatalf("histogram %q has buckets but no _count", series)
		}
		if inf != want {
			t.Fatalf("histogram %q +Inf bucket %v != count %v", series, inf, want)
		}
	}
}

// labelsWithoutLe strips the le pair from a label set, keying a bucket series
// to its parent histogram series.
func labelsWithoutLe(labels string) string {
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var kept []string
	for _, pair := range strings.Split(inner, ",") {
		if !strings.HasPrefix(pair, `le="`) {
			kept = append(kept, pair)
		}
	}
	return "{" + strings.Join(kept, ",") + "}"
}

func labelsOf(line string) string {
	name, _, _ := strings.Cut(line, " ")
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[i:]
	}
	return "{}"
}

func TestRegistryPrometheusFormat(t *testing.T) {
	g := NewRegistry()
	g.Counter("yafim_tasks_total", "Tasks.", "engine", "rdd").Add(7)
	g.Counter("yafim_tasks_total", "Tasks.", "engine", "mapreduce").Add(3)
	g.Gauge("yafim_pass_depth", "Depth.", "engine", "rdd").Set(4)
	h := g.Histogram("yafim_task_duration_seconds", "Durations.", DurationBuckets, "engine", "rdd")
	for _, v := range []float64{0.0004, 0.003, 0.2, 4, 400} {
		h.Observe(v)
	}
	g.Histogram("plain_hist", "No labels.", []float64{1, 2}).Observe(1.5)

	var buf bytes.Buffer
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	checkPrometheusText(t, out)
	for _, want := range []string{
		"# TYPE yafim_tasks_total counter",
		"# TYPE yafim_pass_depth gauge",
		"# TYPE yafim_task_duration_seconds histogram",
		`yafim_tasks_total{engine="mapreduce"} 3`,
		`yafim_tasks_total{engine="rdd"} 7`,
		`yafim_task_duration_seconds_bucket{engine="rdd",le="+Inf"} 5`,
		`yafim_task_duration_seconds_count{engine="rdd"} 5`,
		`plain_hist_bucket{le="1"} 0`,
		`plain_hist_bucket{le="2"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
	// Series within a family must be sorted (mapreduce before rdd).
	if strings.Index(out, `engine="mapreduce"} 3`) > strings.Index(out, `engine="rdd"} 7`) {
		t.Error("series not sorted by labels")
	}
}

func TestRegistryDeterministicExport(t *testing.T) {
	build := func() *Registry {
		g := NewRegistry()
		// Insertion order differs run to run via map iteration only if export
		// ever depended on it; build in two different orders to prove it
		// doesn't.
		for _, e := range []string{"rdd", "mapreduce", "a", "z"} {
			g.Counter("c_total", "c", "engine", e).Add(1)
			g.Histogram("h", "h", CountBuckets, "engine", e).Observe(5)
			g.Gauge("g", "g", "engine", e).Set(2)
		}
		return g
	}
	var a, b bytes.Buffer
	if err := build().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical registries exported different bytes")
	}
}

func TestRegistrySchemaRedeclarationPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(g *Registry)
	}{
		{"type", func(g *Registry) {
			g.Counter("m", "h")
			g.Gauge("m", "h")
		}},
		{"labels", func(g *Registry) {
			g.Counter("m", "h", "engine", "rdd")
			g.Counter("m", "h", "node", "0")
		}},
		{"bounds", func(g *Registry) {
			g.Histogram("m", "h", []float64{1, 2})
			g.Histogram("m", "h", []float64{1, 3})
		}},
		{"odd-labels", func(g *Registry) {
			g.Counter("m", "h", "engine")
		}},
		{"unsorted-bounds", func(g *Registry) {
			g.Histogram("m", "h", []float64{2, 1})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("schema violation did not panic")
				}
			}()
			c.fn(NewRegistry())
		})
	}
}

// TestRegistryObserveAllocFree is the hot-path guarantee: once handles exist,
// Observe / Add / Set allocate nothing, so attaching the metrics layer cannot
// change the engines' allocation behaviour.
func TestRegistryObserveAllocFree(t *testing.T) {
	g := NewRegistry()
	h := g.Histogram("h", "h", DurationBuckets, "engine", "rdd")
	c := g.Counter("c_total", "c", "engine", "rdd")
	gauge := g.Gauge("g", "g")
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(0.25)
		c.Add(1)
		gauge.Set(42)
		gauge.Add(-1)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocated %.1f per run, want 0", allocs)
	}
}

// TestRegistryObserveAllocFreeWhileFilling checks the first observations of
// a fresh series as well, spread over every bucket and the overflow bucket:
// the bucket array is preallocated at construction, so filling it must not
// allocate either.
func TestRegistryObserveAllocFreeWhileFilling(t *testing.T) {
	g := NewRegistry()
	h := g.Histogram("h", "h", DurationBuckets)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(float64(i))
		i++
	})
	if allocs != 0 {
		t.Fatalf("filling observe allocated %.1f per run, want 0", allocs)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var g *Registry
	c := g.Counter("c", "h")
	gauge := g.Gauge("g", "h")
	h := g.Histogram("h", "h", CountBuckets)
	c.Add(1)
	gauge.Set(1)
	gauge.Add(1)
	h.Observe(1)
	var buf bytes.Buffer
	if err := g.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q, err %v", buf.String(), err)
	}
}

// exported renders g in the Prometheus text format, for tests that read
// series values back as a scraper would.
func exported(t *testing.T, g *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestGaugeValue(t *testing.T) {
	g := NewRegistry()
	gauge := g.Gauge("g", "h")
	gauge.Set(10)
	gauge.Add(-3)
	if out := exported(t, g); !strings.Contains(out, "\ng 7\n") {
		t.Fatalf("gauge not exported as 7:\n%s", out)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	g := NewRegistry()
	c := g.Counter("c_total", "h")
	c.Add(5)
	c.Add(-3)
	var buf bytes.Buffer
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "c_total 5") {
		t.Fatalf("negative add not ignored:\n%s", buf.String())
	}
}

func TestHistogramLabelSeriesIndependent(t *testing.T) {
	g := NewRegistry()
	for i := 0; i < 4; i++ {
		g.Histogram("h", "h", CountBuckets, "engine", fmt.Sprint(i%2)).Observe(float64(i + 1))
	}
	out := exported(t, g)
	for _, want := range []string{
		`h_count{engine="0"} 2`, `h_count{engine="1"} 2`,
		`h_sum{engine="0"} 4`, `h_sum{engine="1"} 6`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("export lacks %q:\n%s", want, out)
		}
	}
}
