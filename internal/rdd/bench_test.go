package rdd

import (
	"testing"

	"yafim/internal/cluster"
	"yafim/internal/shuffle"
)

func BenchmarkMapCollect(b *testing.B) {
	ctx, err := NewContext(cluster.Local())
	if err != nil {
		b.Fatal(err)
	}
	data := ints(100000)
	r := Parallelize(ctx, "n", data, 16).Cache()
	if _, err := Collect(r); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := Map(r, "inc", func(v int) int { return v + 1 })
		if _, err := Collect(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReduceByKey measures the shuffle alone: "mod512" folds many
// duplicate keys map-side; "countPass" has the shape of YAFIM's counting
// pass on T10I4D100K, 192 map tasks each emitting ascending unique candidate
// ids into 96 reduce partitions.
func BenchmarkReduceByKey(b *testing.B) {
	mod512 := make([]shuffle.Pair[int, int], 100000)
	for i := range mod512 {
		mod512[i] = shuffle.Pair[int, int]{Key: i % 512, Value: 1}
	}
	var countPass []shuffle.Pair[int, int]
	for m := 0; m < 192; m++ {
		for k := m % 4; k < 20000; k += 4 {
			countPass = append(countPass, shuffle.Pair[int, int]{Key: k, Value: 1 + k%3})
		}
	}
	for _, bc := range []struct {
		name              string
		pairs             []shuffle.Pair[int, int]
		mapTasks, reduces int
	}{
		{"mod512", mod512, 16, 8},
		{"countPass", countPass, 192, 96},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ctx, err := NewContext(cluster.Local())
			if err != nil {
				b.Fatal(err)
			}
			r := Parallelize(ctx, "p", bc.pairs, bc.mapTasks).Cache()
			if _, err := Collect(r); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				red := ReduceByKey(r, "sum", func(a, c int) int { return a + c }, bc.reduces)
				if _, err := Collect(red); err != nil {
					b.Fatal(err)
				}
				ctx.FreeShuffles() // keep earlier iterations' map output from piling up
			}
		})
	}
}
