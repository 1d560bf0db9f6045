package rdd

import (
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"yafim/internal/cluster"
	"yafim/internal/dfs"
	"yafim/internal/sim"
)

// dfsNewForLocality stages a small multi-block file.
func dfsNewForLocality(t *testing.T) *dfs.FileSystem {
	t.Helper()
	fs := dfs.New(2, dfs.WithBlockSize(16), dfs.WithReplication(1))
	if err := fs.WriteFile("/loc.txt", []byte("alpha\nbeta\ngamma\ndelta\nepsilon\n"), nil); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestDistinct(t *testing.T) {
	ctx := newTestContext(t)
	r := Parallelize(ctx, "dups", []int{3, 1, 3, 2, 1, 1, 2}, 3)
	got, err := Collect(Distinct(r, "d", 2))
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(got)
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Distinct = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Distinct = %v", got)
		}
	}
}

func TestGroupByKey(t *testing.T) {
	ctx := newTestContext(t)
	pairs := []Pair[string, int]{{"a", 1}, {"b", 2}, {"a", 3}, {"a", 5}, {"b", 4}}
	r := Parallelize(ctx, "p", pairs, 2)
	got, err := Collect(GroupByKey(r, "g", 2))
	if err != nil {
		t.Fatal(err)
	}
	m := map[string][]int{}
	for _, kv := range got {
		m[kv.Key] = kv.Value
	}
	sort.Ints(m["a"])
	sort.Ints(m["b"])
	if len(m["a"]) != 3 || m["a"][0] != 1 || m["a"][2] != 5 {
		t.Fatalf("group a = %v", m["a"])
	}
	if len(m["b"]) != 2 {
		t.Fatalf("group b = %v", m["b"])
	}
}

func TestJoin(t *testing.T) {
	ctx := newTestContext(t)
	users := Parallelize(ctx, "users", []Pair[int, string]{
		{1, "ann"}, {2, "bob"}, {3, "cat"},
	}, 2)
	orders := Parallelize(ctx, "orders", []Pair[int, int]{
		{1, 100}, {1, 200}, {3, 300}, {4, 999},
	}, 2)
	got, err := Collect(Join(users, orders, "j", 2))
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		user  string
		total int
	}
	var rows []row
	for _, kv := range got {
		rows = append(rows, row{kv.Value.Left, kv.Value.Right})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].total < rows[j].total })
	want := []row{{"ann", 100}, {"ann", 200}, {"cat", 300}}
	if len(rows) != len(want) {
		t.Fatalf("join = %v", rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("join = %v, want %v", rows, want)
		}
	}
}

func TestSampleDeterministicAndBounded(t *testing.T) {
	ctx := newTestContext(t)
	r := Parallelize(ctx, "n", ints(10000), 8)
	s := Sample(r, "s", 0.25, 42)
	a, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(Sample(r, "s2", 0.25, 42))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different samples")
		}
	}
	frac := float64(len(a)) / 10000
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("sample fraction = %.3f, want ~0.25", frac)
	}
	if got, _ := Collect(Sample(r, "zero", 0, 1)); len(got) != 0 {
		t.Fatalf("fraction 0 kept %d", len(got))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("fraction > 1 accepted")
		}
	}()
	Sample(r, "bad", 1.5, 1)
}

func TestRepartition(t *testing.T) {
	ctx := newTestContext(t)
	r := Parallelize(ctx, "n", ints(100), 10)
	rp := Repartition(r, "rp", 4)
	if rp.NumPartitions() != 4 {
		t.Fatalf("parts = %d", rp.NumPartitions())
	}
	got, err := Collect(rp)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(got)
	if len(got) != 100 || got[0] != 0 || got[99] != 99 {
		t.Fatalf("repartition lost data: %d elements", len(got))
	}
	// Shuffle costs must be charged.
	reps := ctx.Reports()
	job := reps[len(reps)-1]
	cost := job.TotalCost()
	if cost.Net == 0 || cost.DiskWrite == 0 {
		t.Fatalf("repartition shuffle not metered: %+v", cost)
	}
}

func TestTakeAndSortBy(t *testing.T) {
	ctx := newTestContext(t)
	r := Parallelize(ctx, "n", []int{5, 3, 9, 1}, 2)
	got, err := Take(r, 2)
	if err != nil || len(got) != 2 {
		t.Fatalf("take = %v, %v", got, err)
	}
	all, err := Take(r, 100)
	if err != nil || len(all) != 4 {
		t.Fatalf("take 100 = %v", all)
	}
	sorted, err := SortBy(r, func(v int) int { return v })
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(sorted) {
		t.Fatalf("sortBy = %v", sorted)
	}
}

// Property: Distinct output matches a map-based dedup for random input.
func TestDistinctProperty(t *testing.T) {
	f := func(vals []uint8, parts8 uint8) bool {
		parts := int(parts8%4) + 1
		ctx, err := NewContext(cluster.Local())
		if err != nil {
			return false
		}
		data := make([]int, len(vals))
		want := map[int]bool{}
		for i, v := range vals {
			data[i] = int(v % 32)
			want[int(v%32)] = true
		}
		r := Parallelize(ctx, "v", data, parts)
		got, err := Collect(Distinct(r, "d", parts))
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for _, v := range got {
			if !want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheMemoryLimitEvictsAndRecomputes(t *testing.T) {
	// Budget fits roughly half the partitions per node; everything must
	// still compute correctly, with recomputation covering evictions.
	cfg := cluster.Local() // 2 nodes
	ctx, err := NewContext(cfg, WithExecutorMemory(64))
	if err != nil {
		t.Fatal(err)
	}
	computes := make([]int, 8)
	base := newRDD(ctx, "counted", 8, nil, func(p int, led *sim.Ledger) ([]int, error) {
		computes[p]++
		out := make([]int, 4) // 4 ints * 8 bytes = 32 bytes per partition
		for i := range out {
			out[i] = p*10 + i
		}
		return out, nil
	})
	base.Cache()
	for round := 0; round < 3; round++ {
		got, err := Collect(base)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 32 {
			t.Fatalf("round %d: %d elements", round, len(got))
		}
	}
	total := 0
	for _, n := range computes {
		total += n
	}
	if total <= 8 {
		t.Fatal("no recomputation despite a tight memory budget")
	}
	// Node budgets must never be exceeded.
	for node := 0; node < cfg.Nodes; node++ {
		if used := ctx.cacheMgr.usedBytes(node); used > 64 {
			t.Fatalf("node %d cache usage %d exceeds budget", node, used)
		}
	}
}

func TestCacheMemoryLimitRejectsOversizedPartition(t *testing.T) {
	ctx, err := NewContext(cluster.Local(), WithExecutorMemory(16))
	if err != nil {
		t.Fatal(err)
	}
	computes := 0
	base := newRDD(ctx, "big", 1, nil, func(p int, led *sim.Ledger) ([]int, error) {
		computes++
		return make([]int, 100), nil // 800 bytes, over any budget
	})
	base.Cache()
	for i := 0; i < 2; i++ {
		if _, err := Collect(base); err != nil {
			t.Fatal(err)
		}
	}
	if computes != 2 {
		t.Fatalf("oversized partition cached anyway (computes=%d)", computes)
	}
}

func TestCacheUnlimitedByDefault(t *testing.T) {
	ctx := newTestContext(t)
	var computes atomic.Int64 // the two partition tasks run concurrently
	base := newRDD(ctx, "c", 2, nil, func(p int, led *sim.Ledger) ([]int, error) {
		computes.Add(1)
		return make([]int, 1000), nil
	})
	base.Cache()
	for i := 0; i < 3; i++ {
		if _, err := Collect(base); err != nil {
			t.Fatal(err)
		}
	}
	if n := computes.Load(); n != 2 {
		t.Fatalf("computes = %d, want 2", n)
	}
}

func TestCacheLRUPrefersHotPartitions(t *testing.T) {
	// One node, budget for exactly two partitions. Partition 0 is touched
	// between inserts of 1 and 2, so the LRU victim must be partition 1.
	cfg := cluster.Local()
	cfg.Nodes, cfg.CoresPerNode = 1, 4
	ctx, err := NewContext(cfg, WithExecutorMemory(70))
	if err != nil {
		t.Fatal(err)
	}
	mgr := ctx.cacheMgr
	cs := &cacheState[int]{mgr: mgr, parts: make([]*[]int, 3)}
	rows := []int{1, 2, 3, 4} // 32 bytes
	cs.put(0, rows)
	cs.put(1, rows)
	if _, ok := cs.get(0); !ok {
		t.Fatal("partition 0 missing")
	}
	cs.put(2, rows) // must evict partition 1 (least recently used)
	if _, ok := cs.get(1); ok {
		t.Fatal("LRU victim not evicted")
	}
	if _, ok := cs.get(0); !ok {
		t.Fatal("recently used partition evicted")
	}
	if _, ok := cs.get(2); !ok {
		t.Fatal("new partition not cached")
	}
}

func TestTextFilePartitionsCarryLocality(t *testing.T) {
	fs := dfsNewForLocality(t)
	ctx := newTestContext(t)
	r, err := TextFile(ctx, fs, "/loc.txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for p := 0; p < r.NumPartitions(); p++ {
		if len(r.PreferredNodes(p)) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no partition carries block locations")
	}
	// Narrow transformations inherit the preferences; shuffles drop them.
	m := Map(r, "m", func(s string) string { return s })
	if len(m.PreferredNodes(0)) == 0 {
		t.Fatal("Map lost locality preferences")
	}
	pairs := Map(r, "kv", func(s string) Pair[string, int] { return Pair[string, int]{s, 1} })
	red := ReduceByKey(pairs, "c", func(a, b int) int { return a + b }, 2)
	if len(red.PreferredNodes(0)) != 0 {
		t.Fatal("shuffle output unexpectedly has locality preferences")
	}
	if _, err := Collect(red); err != nil {
		t.Fatal(err)
	}
}
