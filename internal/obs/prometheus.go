package obs

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"

	"yafim/internal/sim"
)

// Prometheus export of the flat Counters snapshot. Every field is exported
// as yafim_<json tag>; sim.Cost-valued fields expand into one metric per
// cost component (yafim_<tag>_<component>). The field list is discovered by
// reflection over the struct's json tags, so a newly added counter appears
// in /metrics without touching this file — and the drift test leans on the
// same discovery to prove Sub, IsZero, and WriteCounters kept up.

// counterGauges names the Counters fields that are levels rather than
// monotone totals and must be typed as Prometheus gauges.
var counterGauges = map[string]bool{
	"shuffle_resident_bytes": true,
}

// counterMetric is one exported counter: its Prometheus-ready name (without
// the yafim_ prefix) and current value.
type counterMetric struct {
	name  string
	value float64
}

// counterMetrics flattens a Counters snapshot into exportable name/value
// pairs, expanding sim.Cost fields component-wise.
func counterMetrics(c Counters) []counterMetric {
	v := reflect.ValueOf(c)
	t := v.Type()
	var out []counterMetric
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := jsonTag(f)
		switch f.Type.Kind() {
		case reflect.Int64:
			out = append(out, counterMetric{tag, float64(v.Field(i).Int())})
		case reflect.Struct:
			cost, ok := v.Field(i).Interface().(sim.Cost)
			if !ok {
				panic(fmt.Sprintf("obs: unsupported Counters field type %s for %q", f.Type, tag))
			}
			ct := reflect.TypeOf(cost)
			cv := reflect.ValueOf(cost)
			for j := 0; j < ct.NumField(); j++ {
				sub := tag + "_" + jsonTag(ct.Field(j))
				switch ct.Field(j).Type.Kind() {
				case reflect.Float64:
					out = append(out, counterMetric{sub, cv.Field(j).Float()})
				case reflect.Int64:
					out = append(out, counterMetric{sub, float64(cv.Field(j).Int())})
				default:
					panic(fmt.Sprintf("obs: unsupported Cost field type %s", ct.Field(j).Type))
				}
			}
		default:
			panic(fmt.Sprintf("obs: unsupported Counters field type %s for %q", f.Type, tag))
		}
	}
	return out
}

func jsonTag(f reflect.StructField) string {
	tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	if tag == "" || tag == "-" {
		panic(fmt.Sprintf("obs: field %s lacks a json tag", f.Name))
	}
	return tag
}

// WritePrometheus renders the recorder's full metric surface — the flat
// counters followed by the registry families — in the Prometheus text
// exposition format. A nil recorder writes nothing.
func WritePrometheus(w io.Writer, r *Recorder) error {
	if r == nil {
		return nil
	}
	metrics := counterMetrics(r.Counters())
	sort.Slice(metrics, func(a, b int) bool { return metrics[a].name < metrics[b].name })
	for _, m := range metrics {
		typ := "counter"
		if counterGauges[m.name] {
			typ = "gauge"
		}
		name := "yafim_" + m.name
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %s\n",
			name, typ, name, formatFloat(m.value)); err != nil {
			return err
		}
	}
	return r.Metrics().WritePrometheus(w)
}
