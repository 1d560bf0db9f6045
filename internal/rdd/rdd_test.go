package rdd

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"yafim/internal/cluster"
	"yafim/internal/dfs"
	"yafim/internal/shuffle"
	"yafim/internal/sim"
	"yafim/internal/vcluster"
)

func newTestContext(t *testing.T, opts ...Option) *Context {
	t.Helper()
	ctx, err := NewContext(cluster.Local(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// jobCost sums the resource cost of every stage of a job.
func jobCost(j sim.JobReport) sim.Cost {
	var c sim.Cost
	for _, st := range j.Stages {
		c = c.Add(st.Total)
	}
	return c
}

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizeCollect(t *testing.T) {
	ctx := newTestContext(t)
	r := Parallelize(ctx, "nums", ints(100), 7)
	if r.parts != 7 {
		t.Fatalf("parts = %d", r.parts)
	}
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("collected %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestParallelizeEdgeCases(t *testing.T) {
	ctx := newTestContext(t)
	empty := Parallelize(ctx, "empty", []int(nil), 4)
	if got, err := Collect(empty); err != nil || len(got) != 0 {
		t.Fatalf("empty collect: %v, %v", got, err)
	}
	// More partitions than elements must not create phantom elements.
	tiny := Parallelize(ctx, "tiny", []int{1, 2}, 64)
	if got, err := Collect(tiny); err != nil || len(got) != 2 {
		t.Fatalf("tiny collect: %v, %v", got, err)
	}
	// parts <= 0 defaults to cluster core count.
	def := Parallelize(ctx, "def", ints(1000), 0)
	if def.parts != ctx.Config().TotalCores() {
		t.Fatalf("default parts = %d", def.parts)
	}
}

func TestMapFilterFlatMap(t *testing.T) {
	ctx := newTestContext(t)
	r := Parallelize(ctx, "nums", ints(10), 3)
	doubled := Map(r, "double", func(v int) int { return 2 * v })
	evens := Filter(doubled, "mod4", func(v int) bool { return v%4 == 0 })
	expanded := FlatMap(evens, "dup", func(v int) []int { return []int{v, v} })
	got, err := Collect(expanded)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 4, 4, 8, 8, 12, 12, 16, 16}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCount(t *testing.T) {
	ctx := newTestContext(t)
	r := Parallelize(ctx, "nums", ints(101), 8)
	n, err := Count(r)
	if err != nil || n != 101 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

func TestMapPartitionsLedger(t *testing.T) {
	ctx := newTestContext(t)
	r := Parallelize(ctx, "nums", ints(20), 4)
	mp := MapPartitions(r, "sumParts", func(p int, rows []int, led *sim.Ledger) ([]int, error) {
		led.AddCPU(1000) // domain-specific cost
		s := 0
		for _, v := range rows {
			s += v
		}
		return []int{s}, nil
	})
	got, err := Collect(mp)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, v := range got {
		total += v
	}
	if total != 190 {
		t.Fatalf("partition sums add to %d", total)
	}
	reps := ctx.Reports()
	last := reps[len(reps)-1]
	if jobCost(last).CPUOps < 4000 {
		t.Fatalf("ledger cost not propagated: %+v", jobCost(last))
	}
}

func TestReduceByKey(t *testing.T) {
	ctx := newTestContext(t)
	words := strings.Fields("a b a c b a d c a b")
	r := Parallelize(ctx, "words", words, 3)
	pairs := Map(r, "pairs", func(w string) shuffle.Pair[string, int] { return shuffle.Pair[string, int]{Key: w, Value: 1} })
	counts := ReduceByKey(pairs, "counts", func(a, b int) int { return a + b }, 2)
	got, err := Collect(counts)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]int{}
	for _, kv := range got {
		if _, dup := m[kv.Key]; dup {
			t.Fatalf("duplicate key %q across reduce partitions", kv.Key)
		}
		m[kv.Key] = kv.Value
	}
	want := map[string]int{"a": 4, "b": 3, "c": 2, "d": 1}
	for k, v := range want {
		if m[k] != v {
			t.Fatalf("count[%q] = %d, want %d (all: %v)", k, m[k], v, m)
		}
	}
}

func TestReduceByKeyStagesReported(t *testing.T) {
	ctx := newTestContext(t)
	pairs := Map(Parallelize(ctx, "n", ints(50), 5), "kv",
		func(v int) shuffle.Pair[int, int] { return shuffle.Pair[int, int]{Key: v % 3, Value: v} })
	red := ReduceByKey(pairs, "sum", func(a, b int) int { return a + b }, 2)
	if _, err := Collect(red); err != nil {
		t.Fatal(err)
	}
	reps := ctx.Reports()
	job := reps[len(reps)-1]
	if len(job.Stages) != 2 {
		t.Fatalf("expected map+reduce stages, got %d: %+v", len(job.Stages), job)
	}
	mapStage, redStage := job.Stages[0], job.Stages[1]
	if mapStage.Tasks != 5 || redStage.Tasks != 2 {
		t.Fatalf("stage task counts: %d, %d", mapStage.Tasks, redStage.Tasks)
	}
	if mapStage.Total.DiskWrite == 0 {
		t.Fatal("shuffle write not charged")
	}
	if redStage.Total.Net == 0 || redStage.Total.DiskRead == 0 {
		t.Fatal("shuffle fetch not charged")
	}
	// Re-collecting must reuse the shuffle output: only the reduce stage runs.
	if _, err := Collect(red); err != nil {
		t.Fatal(err)
	}
	reps = ctx.Reports()
	again := reps[len(reps)-1]
	if len(again.Stages) != 1 {
		t.Fatalf("shuffle not reused: %d stages", len(again.Stages))
	}
}

func TestReduceByKeyOutputSorted(t *testing.T) {
	ctx := newTestContext(t)
	pairs := Map(Parallelize(ctx, "n", ints(100), 4), "kv",
		func(v int) shuffle.Pair[int, int] { return shuffle.Pair[int, int]{Key: 99 - v, Value: 1} })
	red := ReduceByKey(pairs, "c", func(a, b int) int { return a + b }, 1)
	got, err := Collect(red)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Key < got[j].Key }) {
		t.Fatal("reduce output not key-sorted within partition")
	}
}

func TestCacheAvoidsRecomputation(t *testing.T) {
	ctx := newTestContext(t)
	computes := make([]int, 4) // one slot per partition; tasks touch only their own
	base := newRDD(ctx, "counted", 4, nil, func(p int, led *sim.Ledger) ([]int, error) {
		computes[p]++
		led.AddCPU(10)
		return []int{p}, nil
	})
	base.Cache()
	for i := 0; i < 3; i++ {
		if _, err := Collect(base); err != nil {
			t.Fatal(err)
		}
	}
	for p, n := range computes {
		if n != 1 {
			t.Fatalf("partition %d computed %d times, want 1", p, n)
		}
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

// errInjected is the task failure the tests inject through task code.
var errInjected = errors.New("rdd test: injected task failure")

// failPlan schedules failures for the partitions of a flaky RDD.
type failPlan struct {
	mu   sync.Mutex
	left map[int]int
}

// arm makes the next n computations of partition part fail.
func (f *failPlan) arm(part, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.left == nil {
		f.left = make(map[int]int)
	}
	f.left[part] += n
}

// fail reports whether this computation of partition part fails, using up
// one armed failure when it does.
func (f *failPlan) fail(part int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.left[part] > 0 {
		f.left[part]--
		return true
	}
	return false
}

// flaky passes r through a MapPartitions whose partitions fail with
// errInjected as plan arms them.
func flaky[T any](r *RDD[T], plan *failPlan) *RDD[T] {
	return MapPartitions(r, "flaky", func(p int, rows []T, _ *sim.Ledger) ([]T, error) {
		if plan.fail(p) {
			return nil, errInjected
		}
		return rows, nil
	})
}

func TestTaskRetryOnInjectedFailure(t *testing.T) {
	ctx := newTestContext(t)
	var plan failPlan
	plan.arm(1, 2) // fail twice, succeed on third attempt
	got, err := Collect(flaky(Parallelize(ctx, "nums", ints(10), 2), &plan))
	if err != nil || len(got) != 10 {
		t.Fatalf("collect after injected failures: %v, %v", got, err)
	}
}

func TestTaskFailsAfterMaxAttempts(t *testing.T) {
	ctx := newTestContext(t)
	var plan failPlan
	plan.arm(0, vcluster.MaxTaskAttempts) // exhaust every attempt
	_, err := Collect(flaky(Parallelize(ctx, "nums", ints(10), 2), &plan))
	if err == nil {
		t.Fatal("job succeeded despite permanent task failure")
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("error does not wrap the injected failure: %v", err)
	}
}

func TestKillNodeRecomputesFromLineage(t *testing.T) {
	ctx := newTestContext(t)
	computes := make([]int, 4)
	base := newRDD(ctx, "counted", 4, nil, func(p int, led *sim.Ledger) ([]int, error) {
		computes[p]++
		return []int{p * 10}, nil
	})
	base.Cache()
	if _, err := Collect(base); err != nil {
		t.Fatal(err)
	}
	ctx.KillNode(0) // partitions 0 and 2 live on node 0 of the 2-node cluster
	got, err := Collect(base)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(got)
	if got[0] != 0 || got[3] != 30 {
		t.Fatalf("data lost after node kill: %v", got)
	}
	if computes[0] != 2 || computes[2] != 2 {
		t.Fatalf("lost partitions not recomputed: %v", computes)
	}
	if computes[1] != 1 || computes[3] != 1 {
		t.Fatalf("surviving partitions recomputed needlessly: %v", computes)
	}
}

// dropAllCaches evicts every cached partition, as if all executors were
// restarted.
func (c *Context) dropAllCaches() {
	c.mu.Lock()
	caches := append([]evictor(nil), c.caches...)
	c.mu.Unlock()
	for _, e := range caches {
		e.evictAll()
	}
}

func TestDropAllCaches(t *testing.T) {
	ctx := newTestContext(t)
	computes := 0
	base := newRDD(ctx, "counted", 1, nil, func(p int, led *sim.Ledger) ([]int, error) {
		computes++
		return []int{1}, nil
	})
	base.Cache()
	for i := 0; i < 2; i++ {
		if _, err := Collect(base); err != nil {
			t.Fatal(err)
		}
	}
	ctx.dropAllCaches()
	if _, err := Collect(base); err != nil {
		t.Fatal(err)
	}
	if computes != 2 {
		t.Fatalf("computes = %d, want 2", computes)
	}
}

func TestFirstJobPaysStartup(t *testing.T) {
	cfg := cluster.Local()
	ctx, err := NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := Parallelize(ctx, "n", ints(4), 2)
	if _, err := Collect(r); err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(r); err != nil {
		t.Fatal(err)
	}
	reps := ctx.Reports()
	if reps[0].Overhead < cfg.JobStartup {
		t.Fatalf("first job overhead %v < startup %v", reps[0].Overhead, cfg.JobStartup)
	}
	if reps[1].Overhead >= cfg.JobStartup {
		t.Fatalf("second job re-paid startup: %v", reps[1].Overhead)
	}
}

func TestBroadcastCosts(t *testing.T) {
	// Broadcast mode: one-time overhead on the next job, free task access.
	ctx := newTestContext(t)
	r := Parallelize(ctx, "n", ints(8), 4)
	bc := NewBroadcast(ctx, "payload", 1<<20)
	use := MapPartitions(r, "use", func(p int, rows []int, led *sim.Ledger) ([]int, error) {
		_ = bc.Acquire(led)
		return rows, nil
	})
	if _, err := Collect(use); err != nil {
		t.Fatal(err)
	}
	reps := ctx.Reports()
	job := reps[len(reps)-1]
	if jobCost(job).Net != 0 {
		t.Fatalf("broadcast mode charged per-task net: %+v", jobCost(job))
	}
	if job.Overhead <= ctx.Config().JobStartup {
		t.Fatal("broadcast distribution time missing from job overhead")
	}

	// Naive mode: no distribution overhead, every task pays the shipment.
	ctxN := newTestContext(t, WithoutBroadcast())
	rN := Parallelize(ctxN, "n", ints(8), 4)
	bcN := NewBroadcast(ctxN, "payload", 1<<20)
	useN := MapPartitions(rN, "use", func(p int, rows []int, led *sim.Ledger) ([]int, error) {
		_ = bcN.Acquire(led)
		return rows, nil
	})
	if _, err := Collect(useN); err != nil {
		t.Fatal(err)
	}
	repsN := ctxN.Reports()
	jobN := repsN[len(repsN)-1]
	if got := jobCost(jobN).Net; got != 4<<20 {
		t.Fatalf("naive mode net = %d, want %d", got, 4<<20)
	}
}

func TestTextFile(t *testing.T) {
	fs := dfs.New(2, dfs.WithBlockSize(16))
	content := "first line\nsecond\nthird one here\n"
	if err := fs.WriteFile("/in.txt", []byte(content), nil); err != nil {
		t.Fatal(err)
	}
	ctx := newTestContext(t)
	r, err := TextFile(ctx, fs, "/in.txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"first line", "second", "third one here"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("TextFile lines = %v", got)
	}
	reps := ctx.Reports()
	if jobCost(reps[len(reps)-1]).DiskRead == 0 {
		t.Fatal("TextFile read charged no disk I/O")
	}
	if _, err := TextFile(ctx, fs, "/missing", 0); err == nil {
		t.Fatal("TextFile on missing path succeeded")
	}
}

// dfsNewForLocality stages a small multi-block file.
func dfsNewForLocality(t *testing.T) *dfs.FileSystem {
	t.Helper()
	fs := dfs.New(2, dfs.WithBlockSize(16), dfs.WithReplication(1))
	if err := fs.WriteFile("/loc.txt", []byte("alpha\nbeta\ngamma\ndelta\nepsilon\n"), nil); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestTextFilePartitionsCarryLocality(t *testing.T) {
	fs := dfsNewForLocality(t)
	ctx := newTestContext(t)
	r, err := TextFile(ctx, fs, "/loc.txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for p := 0; p < r.parts; p++ {
		if len(r.prefs[p]) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no partition carries block locations")
	}
	// Narrow transformations inherit the preferences; shuffles drop them.
	m := Map(r, "m", func(s string) string { return s })
	if len(m.prefs) == 0 || len(m.prefs[0]) == 0 {
		t.Fatal("Map lost locality preferences")
	}
	pairs := Map(r, "kv", func(s string) shuffle.Pair[string, int] { return shuffle.Pair[string, int]{Key: s, Value: 1} })
	red := ReduceByKey(pairs, "c", func(a, b int) int { return a + b }, 2)
	if len(red.prefs) != 0 {
		t.Fatal("shuffle output unexpectedly has locality preferences")
	}
	if _, err := Collect(red); err != nil {
		t.Fatal(err)
	}
}

func TestPairSizeBytes(t *testing.T) {
	if got := (shuffle.Pair[string, int]{Key: "abc", Value: 1}).SizeBytes(); got != 3+4+8 {
		t.Fatalf("SizeBytes = %d", got)
	}
	if got := (shuffle.Pair[int, int32]{Key: 1, Value: 2}).SizeBytes(); got != 12 {
		t.Fatalf("SizeBytes = %d", got)
	}
}

// Property: ReduceByKey over integer addition agrees with a sequential
// map-based aggregation for arbitrary inputs and partition counts.
func TestReduceByKeyAgreesWithSequentialProperty(t *testing.T) {
	f := func(keys []uint8, parts8, red8 uint8) bool {
		parts := int(parts8%5) + 1
		reduceParts := int(red8%4) + 1
		ctx, err := NewContext(cluster.Local())
		if err != nil {
			return false
		}
		pairs := make([]shuffle.Pair[int, int], len(keys))
		want := map[int]int{}
		for i, k := range keys {
			pairs[i] = shuffle.Pair[int, int]{Key: int(k % 16), Value: 1}
			want[int(k%16)]++
		}
		r := Parallelize(ctx, "p", pairs, parts)
		red := ReduceByKey(r, "sum", func(a, b int) int { return a + b }, reduceParts)
		got, err := Collect(red)
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for _, kv := range got {
			if want[kv.Key] != kv.Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: virtual makespans are identical across repeated runs of the
// same driver program (full determinism of the time model).
func TestJobTimingDeterministicProperty(t *testing.T) {
	run := func() []sim.JobReport {
		ctx, _ := NewContext(cluster.PaperSpark())
		r := Parallelize(ctx, "n", ints(5000), 32).Cache()
		pairs := Map(r, "kv", func(v int) shuffle.Pair[int, int] { return shuffle.Pair[int, int]{Key: v % 7, Value: v} })
		red := ReduceByKey(pairs, "sum", func(a, b int) int { return a + b }, 8)
		if _, err := Collect(red); err != nil {
			t.Fatal(err)
		}
		if _, err := Count(r); err != nil {
			t.Fatal(err)
		}
		return ctx.Reports()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("report counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Duration() != b[i].Duration() {
			t.Fatalf("job %d duration %v vs %v", i, a[i].Duration(), b[i].Duration())
		}
	}
}
