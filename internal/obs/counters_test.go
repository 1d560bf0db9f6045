package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// The exporters build their rows from Counters' json tags. These tests pin
// their exact text for a fully filled snapshot, so a change to how the
// fields are walked cannot move a byte of -stats or /metrics output.

// wantCounterTable is WriteCounters' output for fillCounters(t, 500).
const wantCounterTable = `cache_hits              500
cache_misses            507
cache_evictions         514
lineage_recomputes      521
broadcast_bytes         528
naive_ship_bytes        535
shuffle_bytes           542
dfs_read_bytes          549
dfs_write_bytes         556
shuffle_resident_bytes  563
shuffle_frees           570
map_reruns              577
task_retries            584
wasted_cost             cpu=591 dr=592B dw=593B net=594B
cancellations           598
task_panics             605
speculative_launches    612
speculative_wins        619
nodes_blacklisted       626
fetch_failures          633
stages_rerun            640
re_replicated_blocks    647
block_read_retries      654
locality_local          661
locality_remote         668
`

// wantCounterMetrics is WritePrometheus' output for a recorder holding
// fillCounters(t, 300) and no registry series.
const wantCounterMetrics = `# TYPE yafim_block_read_retries counter
yafim_block_read_retries 454
# TYPE yafim_broadcast_bytes counter
yafim_broadcast_bytes 328
# TYPE yafim_cache_evictions counter
yafim_cache_evictions 314
# TYPE yafim_cache_hits counter
yafim_cache_hits 300
# TYPE yafim_cache_misses counter
yafim_cache_misses 307
# TYPE yafim_cancellations counter
yafim_cancellations 398
# TYPE yafim_dfs_read_bytes counter
yafim_dfs_read_bytes 349
# TYPE yafim_dfs_write_bytes counter
yafim_dfs_write_bytes 356
# TYPE yafim_fetch_failures counter
yafim_fetch_failures 433
# TYPE yafim_lineage_recomputes counter
yafim_lineage_recomputes 321
# TYPE yafim_locality_local counter
yafim_locality_local 461
# TYPE yafim_locality_remote counter
yafim_locality_remote 468
# TYPE yafim_map_reruns counter
yafim_map_reruns 377
# TYPE yafim_naive_ship_bytes counter
yafim_naive_ship_bytes 335
# TYPE yafim_nodes_blacklisted counter
yafim_nodes_blacklisted 426
# TYPE yafim_re_replicated_blocks counter
yafim_re_replicated_blocks 447
# TYPE yafim_shuffle_bytes counter
yafim_shuffle_bytes 342
# TYPE yafim_shuffle_frees counter
yafim_shuffle_frees 370
# TYPE yafim_shuffle_resident_bytes gauge
yafim_shuffle_resident_bytes 363
# TYPE yafim_speculative_launches counter
yafim_speculative_launches 412
# TYPE yafim_speculative_wins counter
yafim_speculative_wins 419
# TYPE yafim_stages_rerun counter
yafim_stages_rerun 440
# TYPE yafim_task_panics counter
yafim_task_panics 405
# TYPE yafim_task_retries counter
yafim_task_retries 384
# TYPE yafim_wasted_cost_cpu_ops counter
yafim_wasted_cost_cpu_ops 391
# TYPE yafim_wasted_cost_disk_read counter
yafim_wasted_cost_disk_read 392
# TYPE yafim_wasted_cost_disk_write counter
yafim_wasted_cost_disk_write 393
# TYPE yafim_wasted_cost_net counter
yafim_wasted_cost_net 394
`

func TestWriteCountersExactText(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCounters(&buf, fillCounters(t, 500)); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != wantCounterTable {
		t.Errorf("WriteCounters =\n%s\nwant\n%s", got, wantCounterTable)
	}
}

func TestWritePrometheusCounterLinesExactText(t *testing.T) {
	r := New()
	r.counters = fillCounters(t, 300)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != wantCounterMetrics {
		t.Errorf("WritePrometheus =\n%s\nwant\n%s", got, wantCounterMetrics)
	}
}

// TestRecorderAddCoversEveryField adds one fully filled snapshot to a fresh
// recorder twice and checks, field by field, that Counters returns it
// doubled: a field Add skipped would come back zero, and one it overwrote
// would come back single.
func TestRecorderAddCoversEveryField(t *testing.T) {
	a := fillCounters(t, 1000)
	r := New()
	r.Add(a)
	r.Add(a)
	got, once := reflect.ValueOf(r.Counters()), reflect.ValueOf(a)
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		g, o := got.Field(i), once.Field(i)
		if g.Kind() == reflect.Int64 {
			if g.Int() != 2*o.Int() {
				t.Errorf("Add dropped Counters.%s: got %d, want %d", name, g.Int(), 2*o.Int())
			}
			continue
		}
		for j := 0; j < g.NumField(); j++ {
			if gj, oj := number(g.Field(j)), number(o.Field(j)); gj != 2*oj {
				t.Errorf("Add dropped Counters.%s.%s: got %v, want %v",
					name, g.Type().Field(j).Name, gj, 2*oj)
			}
		}
	}
}

// number reads an int64 or float64 field as a float64.
func number(v reflect.Value) float64 {
	if v.Kind() == reflect.Float64 {
		return v.Float()
	}
	return float64(v.Int())
}
