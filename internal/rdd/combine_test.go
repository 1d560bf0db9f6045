package rdd

import (
	"testing"

	"yafim/internal/cluster"
)

// Map-side combining must shrink what a shuffle moves: many duplicate keys
// per partition spill one combined record each.
func TestReduceByKeyCombinesMapSide(t *testing.T) {
	ctx, err := NewContext(cluster.Local())
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]Pair[int, int], 4096)
	for i := range pairs {
		pairs[i] = Pair[int, int]{i % 4, 1} // 4 distinct keys
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
