package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"yafim/internal/sim"
)

// The drift tests pin every Counters consumer to the struct definition by
// reflection: adding a field without teaching Sub, IsZero, WriteCounters and
// the Prometheus export about it fails here, not in production silence.

// fillCounters returns a Counters value with every field set to a distinct
// non-zero value derived from seed, built by reflection so new fields are
// covered automatically.
func fillCounters(t *testing.T, seed int64) Counters {
	t.Helper()
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int64:
			f.SetInt(seed + int64(i)*7)
		case reflect.Struct:
			for j := 0; j < f.NumField(); j++ {
				sub := f.Field(j)
				switch sub.Kind() {
				case reflect.Int64:
					sub.SetInt(seed + int64(i)*7 + int64(j))
				case reflect.Float64:
					sub.SetFloat(float64(seed) + float64(i)*7 + float64(j))
				default:
					t.Fatalf("unsupported nested field kind %s in Counters.%s",
						sub.Kind(), v.Type().Field(i).Name)
				}
			}
		default:
			t.Fatalf("unsupported field kind %s for Counters.%s",
				f.Kind(), v.Type().Field(i).Name)
		}
	}
	return c
}

// TestCountersSubCoversEveryField checks, field by field, that Sub subtracts
// every component: a field Sub forgot would come back zero instead of a-b.
func TestCountersSubCoversEveryField(t *testing.T) {
	a := fillCounters(t, 1000)
	b := fillCounters(t, 1)
	d := a.Sub(b)

	va, vb, vd := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(d)
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		switch va.Field(i).Kind() {
		case reflect.Int64:
			want := va.Field(i).Int() - vb.Field(i).Int()
			if got := vd.Field(i).Int(); got != want {
				t.Errorf("Sub dropped Counters.%s: got %d, want %d", name, got, want)
			}
		case reflect.Struct:
			fa, fb, fd := va.Field(i), vb.Field(i), vd.Field(i)
			for j := 0; j < fa.NumField(); j++ {
				sub := fa.Type().Field(j).Name
				switch fa.Field(j).Kind() {
				case reflect.Int64:
					want := fa.Field(j).Int() - fb.Field(j).Int()
					if got := fd.Field(j).Int(); got != want {
						t.Errorf("Sub dropped Counters.%s.%s: got %d, want %d", name, sub, got, want)
					}
				case reflect.Float64:
					want := fa.Field(j).Float() - fb.Field(j).Float()
					if got := fd.Field(j).Float(); got != want {
						t.Errorf("Sub dropped Counters.%s.%s: got %v, want %v", name, sub, got, want)
					}
				}
			}
		}
	}
}

// TestCountersIsZeroSeesEveryField sets one field at a time and checks
// IsZero notices.
func TestCountersIsZeroSeesEveryField(t *testing.T) {
	typ := reflect.TypeOf(Counters{})
	for i := 0; i < typ.NumField(); i++ {
		var c Counters
		f := reflect.ValueOf(&c).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int64:
			f.SetInt(1)
		case reflect.Struct:
			sub := f.Field(0)
			if sub.Kind() == reflect.Float64 {
				sub.SetFloat(1)
			} else {
				sub.SetInt(1)
			}
		}
		if c.IsZero() {
			t.Errorf("IsZero blind to Counters.%s", typ.Field(i).Name)
		}
	}
	if !(Counters{}).IsZero() {
		t.Error("zero value not zero")
	}
}

// TestWriteCountersCoversEveryField checks the rendered table has exactly one
// row per struct field, keyed by the field's json tag.
func TestWriteCountersCoversEveryField(t *testing.T) {
	c := fillCounters(t, 500)
	var buf bytes.Buffer
	if err := WriteCounters(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	tags := counterTags()
	for _, tag := range tags {
		if !strings.Contains(out, tag) {
			t.Errorf("WriteCounters missing a row for %q", tag)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != len(tags) {
		t.Errorf("WriteCounters rendered %d rows for %d Counters fields:\n%s",
			len(lines), len(tags), out)
	}
}

// TestCounterMetricsCoversEveryField checks the Prometheus flattening emits
// at least one metric per field (Cost fields expand to one per component),
// with every value carried through.
func TestCounterMetricsCoversEveryField(t *testing.T) {
	c := fillCounters(t, 300)
	metrics := counterMetrics(c)
	byName := map[string]float64{}
	for _, m := range metrics {
		if _, dup := byName[m.name]; dup {
			t.Errorf("duplicate metric name %q", m.name)
		}
		byName[m.name] = m.value
	}

	for _, tag := range counterTags() {
		found := false
		for name := range byName {
			if name == tag || strings.HasPrefix(name, tag+"_") {
				found = true
			}
		}
		if !found {
			t.Errorf("counterMetrics missing field %q", tag)
		}
	}

	// Cost components expand: the wasted_cost field must contribute one
	// metric per sim.Cost field.
	costFields := reflect.TypeOf(sim.Cost{}).NumField()
	expanded := 0
	for name := range byName {
		if strings.HasPrefix(name, "wasted_cost_") {
			expanded++
		}
	}
	if expanded != costFields {
		t.Errorf("wasted_cost expanded to %d metrics, want %d", expanded, costFields)
	}

	// No value may be silently dropped: a filled struct exports no zeros.
	for name, v := range byName {
		if v == 0 {
			t.Errorf("metric %q exported 0 from a fully filled Counters", name)
		}
	}
}

// counterTags returns the json tag of every Counters field, in declaration
// order. Cost-valued fields contribute their own tag (the drift test checks
// table rows against this list).
func counterTags() []string {
	t := reflect.TypeOf(Counters{})
	tags := make([]string, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		tags = append(tags, jsonTag(t.Field(i)))
	}
	return tags
}

// TestCounterTagsMatchFieldCount pins counterTags to the struct definition.
func TestCounterTagsMatchFieldCount(t *testing.T) {
	tags := counterTags()
	if got, want := len(tags), reflect.TypeOf(Counters{}).NumField(); got != want {
		t.Fatalf("counterTags has %d entries for %d fields", got, want)
	}
	seen := map[string]bool{}
	for _, tag := range tags {
		if seen[tag] {
			t.Errorf("duplicate json tag %q", tag)
		}
		seen[tag] = true
	}
}
