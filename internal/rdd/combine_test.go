package rdd

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"yafim/internal/chaos"
	"yafim/internal/cluster"
	"yafim/internal/obs"
	"yafim/internal/shuffle"
	"yafim/internal/sim"
)

// Map-side combining must shrink what a shuffle moves: many duplicate keys
// per partition spill one combined record each.
func TestReduceByKeyCombinesMapSide(t *testing.T) {
	ctx, err := NewContext(cluster.Local())
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]shuffle.Pair[int, int], 4096)
	for i := range pairs {
		pairs[i] = shuffle.Pair[int, int]{Key: i % 4, Value: 1} // 4 distinct keys
	}
	r := Parallelize(ctx, "p", pairs, 4)
	summed := ReduceByKey(r, "sum", func(a, b int) int { return a + b }, 2)
	if _, err := Collect(summed); err != nil {
		t.Fatal(err)
	}
	// 4 map tasks x at most 4 keys x 16 bytes/pair bounds the shuffle far
	// below the unaggregated 4096 records.
	var shuffled int64
	for _, rep := range ctx.Reports() {
		for _, st := range rep.Stages {
			if st.Name == "sum" {
				shuffled = st.Total.Net
			}
		}
	}
	if shuffled == 0 || shuffled > 4*4*16 {
		t.Fatalf("shuffle moved %d bytes; map-side combining missing", shuffled)
	}
}

// tidFrag is a value whose serialized size varies with its length, like
// RDD-Eclat's tidlists.
type tidFrag []int32

func (f tidFrag) SizeBytes() int64 { return int64(4*len(f)) + 4 }

// newFrag returns a fragment of 1 to 4 entries led by id, so concatenation
// order shows in the result.
func newFrag(id int) tidFrag {
	f := make(tidFrag, 1+id%4)
	f[0] = int32(id)
	return f
}

func sum(a, b int) int { return a + b }

// concatStrings and concatFrags are associative but not commutative: any
// change to the order in which equal keys' values combine shows.
func concatStrings(a, b string) string { return a + b }

func concatFrags(a, b tidFrag) tidFrag { return append(append(tidFrag(nil), a...), b...) }

// reduceFunc is the signature ReduceByKey and its reference share.
type reduceFunc[K cmp.Ordered, V any] func(*RDD[shuffle.Pair[K, V]], string, func(V, V) V, int) *RDD[shuffle.Pair[K, V]]

// reduceTrace is everything a ReduceByKey pipeline shows from outside: each
// action's rows, every job's stages with their cost and clock, the counters
// and the metrics text, which holds the ObservePartitionOutput histograms.
type reduceTrace[K cmp.Ordered, V any] struct {
	rows     [][]shuffle.Pair[K, V]
	reports  []sim.JobReport
	counters obs.Counters
	metrics  string
}

// traceReduce reduces input[m] (map task m's rows) into parts partitions
// and collects three times: first, after node 1 is lost (the missing map
// tasks re-run), and after the shuffle is freed (the whole map stage
// re-runs).
func traceReduce[K cmp.Ordered, V any](t testing.TB, reduce reduceFunc[K, V], input [][]shuffle.Pair[K, V],
	combine func(V, V) V, parts int, opts ...Option) reduceTrace[K, V] {
	t.Helper()
	rec := obs.New()
	ctx, err := NewContext(cluster.Local(), append(opts, WithRecorder(rec))...)
	if err != nil {
		t.Fatal(err)
	}
	src := newRDD(ctx, "src", len(input), nil, func(p int, led *sim.Ledger) ([]shuffle.Pair[K, V], error) {
		led.AddCPU(float64(len(input[p])))
		return input[p], nil
	})
	red := reduce(src, "reduce", combine, parts)
	var tr reduceTrace[K, V]
	for _, before := range []func(){func() {}, func() { ctx.KillNode(1) }, ctx.FreeShuffles} {
		before()
		rows, err := Collect(red)
		if err != nil {
			t.Fatal(err)
		}
		tr.rows = append(tr.rows, rows)
	}
	var metrics strings.Builder
	if err := rec.Metrics().WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	tr.reports, tr.counters, tr.metrics = ctx.Reports(), rec.Counters(), metrics.String()
	return tr
}

// checkReduceParity runs ReduceByKey and the map-based reference on the same
// input and fails on any difference in rows, costs, clock or telemetry.
func checkReduceParity[K cmp.Ordered, V any](t testing.TB, input [][]shuffle.Pair[K, V],
	combine func(V, V) V, parts int, opts ...Option) {
	t.Helper()
	got := traceReduce(t, ReduceByKey[K, V], input, combine, parts, opts...)
	want := traceReduce(t, refReduceByKey[K, V], input, combine, parts, opts...)
	for i := range want.rows {
		if !reflect.DeepEqual(got.rows[i], want.rows[i]) {
			t.Fatalf("collect %d: rows\n%v\nwant\n%v", i, got.rows[i], want.rows[i])
		}
	}
	if len(got.reports) != len(want.reports) {
		t.Fatalf("%d jobs, want %d", len(got.reports), len(want.reports))
	}
	for j := range want.reports {
		if !reflect.DeepEqual(got.reports[j], want.reports[j]) {
			t.Fatalf("job %d: report\n%+v\nwant\n%+v", j, got.reports[j], want.reports[j])
		}
	}
	if got.counters != want.counters {
		t.Fatalf("counters\n%+v\nwant\n%+v", got.counters, want.counters)
	}
	if got.metrics != want.metrics {
		t.Fatalf("metrics\n%s\nwant\n%s", got.metrics, want.metrics)
	}
}

// genInput spreads rows over maps map tasks, about a quarter of them empty;
// keys repeat and arrive unsorted within a task.
func genInput[K cmp.Ordered, V any](rng *rand.Rand, maps, keys int,
	key func(int) K, value func(row int) V) [][]shuffle.Pair[K, V] {
	input := make([][]shuffle.Pair[K, V], maps)
	row := 0
	for m := range input {
		if rng.Intn(4) == 0 {
			continue
		}
		for n := rng.Intn(40); n > 0; n-- {
			input[m] = append(input[m], shuffle.Pair[K, V]{Key: key(rng.Intn(keys)), Value: value(row)})
			row++
		}
	}
	return input
}

func TestReduceByKeyMatchesReference(t *testing.T) {
	fetchChaos := WithChaos(&chaos.Plan{Seed: 5, FetchFailProb: 0.3, TaskFailProb: 0.1})
	for _, maps := range []int{1, 2, 3, 7, 192} {
		for _, parts := range []int{1, 5, 96} {
			t.Run(fmt.Sprintf("maps=%d/parts=%d", maps, parts), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(maps*1000 + parts)))
				ints := genInput(rng, maps, 50, func(k int) int { return k * 7919 },
					func(int) int { return 1 + rng.Intn(9) })
				checkReduceParity(t, ints, sum, parts)
				checkReduceParity(t, ints, sum, parts, fetchChaos)

				int32s := genInput(rng, maps, 300, func(k int) int32 { return int32(k - 150) },
					func(int) int { return 1 })
				checkReduceParity(t, int32s, sum, parts)

				strs := genInput(rng, maps, 20, func(k int) string { return fmt.Sprintf("key-%d", k) },
					func(row int) string { return fmt.Sprintf("<%d>", row) })
				checkReduceParity(t, strs, concatStrings, parts)
				checkReduceParity(t, strs, concatStrings, parts, fetchChaos)

				frags := genInput(rng, maps, 30, func(k int) int { return k }, newFrag)
				checkReduceParity(t, frags, concatFrags, parts)

				// YAFIM's count pass: ascending unique keys in every task.
				asc := make([][]shuffle.Pair[int, int], maps)
				for m := range asc {
					for k := m % 3; k < 400; k += 1 + rng.Intn(4) {
						asc[m] = append(asc[m], shuffle.Pair[int, int]{Key: k, Value: 1 + m})
					}
				}
				checkReduceParity(t, asc, sum, parts)
			})
		}
	}
}

// FuzzReduceByKeyParity locks ReduceByKey to the map-based reference on
// arbitrary inputs: every byte is one row, its low bits the key, its
// position the value, and the rows split into maps contiguous map tasks,
// empty ones included when there are more tasks than rows.
func FuzzReduceByKeyParity(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), []byte{3, 1, 3, 2, 1, 3})
	f.Add(uint8(1), uint8(4), uint8(1), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 9, 8, 7})
	f.Add(uint8(2), uint8(6), uint8(2), []byte("the quick brown fox jumps over the lazy dog"))
	f.Add(uint8(191), uint8(95), uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(6), uint8(2), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, maps, parts, kind uint8, data []byte) {
		nMaps, nParts := 1+int(maps)%200, 1+int(parts)%100
		switch kind % 3 {
		case 0:
			checkReduceParity(t, splitRows(data, nMaps, func(b byte) int { return int(b % 16) },
				func(i int) int { return i }), sum, nParts)
		case 1:
			checkReduceParity(t, splitRows(data, nMaps, func(b byte) string { return string(rune('a' + b%8)) },
				func(i int) string { return fmt.Sprint(i, ";") }), concatStrings, nParts)
		case 2:
			checkReduceParity(t, splitRows(data, nMaps, func(b byte) int32 { return int32(b%32) - 16 },
				newFrag), concatFrags, nParts)
		}
	})
}

// splitRows turns data into one row per byte and splits the rows into maps
// contiguous map tasks.
func splitRows[K cmp.Ordered, V any](data []byte, maps int, key func(byte) K,
	value func(int) V) [][]shuffle.Pair[K, V] {
	input := make([][]shuffle.Pair[K, V], maps)
	for m := range input {
		for i := m * len(data) / maps; i < (m+1)*len(data)/maps; i++ {
			input[m] = append(input[m], shuffle.Pair[K, V]{Key: key(data[i]), Value: value(i)})
		}
	}
	return input
}
