package rdd

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"yafim/internal/exec"
	"yafim/internal/leaktest"
	"yafim/internal/obs"
	"yafim/internal/sim"
	"yafim/internal/vcluster"
)

// shuffleNodeBytes reports one node's resident shuffle spill.
func (c *Context) shuffleNodeBytes(node int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shuffleUsed[node]
}

// sumByKey runs the canonical shuffle workload: parts partitions of n ints,
// keyed mod keys, summed by key.
func sumByKey(ctx *Context, n, parts, keys int) (*RDD[Pair[int, int]], *RDD[Pair[int, int]]) {
	pairs := Map(Parallelize(ctx, "nums", ints(n), parts), "pairs", func(v int) Pair[int, int] {
		return Pair[int, int]{Key: v % keys, Value: v}
	})
	return pairs, ReduceByKey(pairs, "sums", func(a, b int) int { return a + b }, parts)
}

// TestCanceledShuffleRerunsCleanly is the regression test for the poisoned
// shuffle bug: a cancellation mid map stage used to be memoized in the
// shuffle's sync.Once and replayed by every later action on the same
// lineage. Now the failed map stage invalidates the shuffle state, so the
// same RDD graph re-runs successfully once the driver's Go context is live
// again.
func TestCanceledShuffleRerunsCleanly(t *testing.T) {
	defer leaktest.Check(t)()
	goCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := newTestContext(t, WithContext(goCtx))

	var fired atomic.Bool
	poisoned := MapPartitions(Parallelize(ctx, "nums", ints(64), 8), "poison",
		func(p int, rows []int, led *sim.Ledger) ([]int, error) {
			if p == 0 && fired.CompareAndSwap(false, true) {
				cancel()
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return rows, nil
		})
	pairs := Map(poisoned, "pairs", func(v int) Pair[int, int] {
		return Pair[int, int]{Key: v % 4, Value: v}
	})
	sums := ReduceByKey(pairs, "sums", func(a, b int) int { return a + b }, 4)

	if _, err := Collect(sums); !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("first run: err = %v, want ErrCanceled", err)
	}
	// The same action on the same lineage, with a fresh driver context.
	ctx.goCtx = context.Background()
	got, err := Collect(sums)
	if err != nil {
		t.Fatalf("re-run after cancellation: %v", err)
	}
	assertSums(t, got, 64, 4)
}

// TestExhaustedShuffleRerunsCleanly exhausts the task attempt limit inside
// the shuffle's map stage and asserts the next action re-runs instead of
// replaying the memoized stage error.
func TestExhaustedShuffleRerunsCleanly(t *testing.T) {
	defer leaktest.Check(t)()
	ctx := newTestContext(t)
	var plan failPlan
	plan.arm(3, vcluster.MaxTaskAttempts)
	pairs := Map(flaky(Parallelize(ctx, "nums", ints(64), 8), &plan), "pairs", func(v int) Pair[int, int] {
		return Pair[int, int]{Key: v % 4, Value: v}
	})
	sums := ReduceByKey(pairs, "sums", func(a, b int) int { return a + b }, 8)

	_, err := Collect(sums)
	if !errors.Is(err, errInjected) {
		t.Fatalf("first run: err = %v, want the injected failure after exhausted retries", err)
	}
	got, err := Collect(sums)
	if err != nil {
		t.Fatalf("re-run after exhausted retries: %v", err)
	}
	assertSums(t, got, 64, 4)
}

func assertSums(t *testing.T, got []Pair[int, int], n, keys int) {
	t.Helper()
	want := make(map[int]int)
	for v := 0; v < n; v++ {
		want[v%keys] += v
	}
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for _, kv := range got {
		if want[kv.Key] != kv.Value {
			t.Fatalf("key %d: sum %d, want %d", kv.Key, kv.Value, want[kv.Key])
		}
	}
}

// TestKillNodeRerunsLostMapPartitions kills one node after a shuffle ran and
// asserts (a) exactly that node's map-output slices are dropped from the
// residency accounting, and (b) the next action re-runs exactly the missing
// map partitions, refilling the accounting to its old level and producing
// the same result.
func TestKillNodeRerunsLostMapPartitions(t *testing.T) {
	defer leaktest.Check(t)()
	rec := obs.New()
	ctx := newTestContext(t, WithRecorder(rec)) // cluster.Local(): 2 nodes
	_, sums := sumByKey(ctx, 64, 4, 4)

	want, err := Collect(sums)
	if err != nil {
		t.Fatal(err)
	}
	resident := ctx.ShuffleResidentBytes()
	if resident <= 0 {
		t.Fatal("no shuffle bytes resident after the action")
	}
	node0 := ctx.shuffleNodeBytes(0)
	node1 := ctx.shuffleNodeBytes(1)
	if node0 <= 0 || node1 <= 0 {
		t.Fatalf("per-node residency = %d, %d; want both positive", node0, node1)
	}

	ctx.KillNode(0) // map tasks 0 and 2 of 4 live on node 0
	if got := ctx.shuffleNodeBytes(0); got != 0 {
		t.Fatalf("node 0 still holds %d shuffle bytes after KillNode", got)
	}
	if got := ctx.shuffleNodeBytes(1); got != node1 {
		t.Fatalf("node 1 residency changed to %d (was %d)", got, node1)
	}
	if got := ctx.ShuffleResidentBytes(); got != node1 {
		t.Fatalf("total residency = %d after KillNode, want %d", got, node1)
	}

	got, err := Collect(sums)
	if err != nil {
		t.Fatalf("re-run after KillNode: %v", err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("re-run result diverged:\n got %v\nwant %v", got, want)
	}
	c := rec.Counters()
	if c.MapReruns != 2 {
		t.Fatalf("MapReruns = %d, want exactly the 2 lost map partitions", c.MapReruns)
	}
	if c.FetchFailures < 2 {
		t.Fatalf("FetchFailures = %d, want >= 2", c.FetchFailures)
	}
	if got := ctx.ShuffleResidentBytes(); got != resident {
		t.Fatalf("residency after recovery = %d, want the original %d", got, resident)
	}
}

// TestKillNodeMidActionResubmitsStage kills a node between the map stage and
// the reduce read (simulated by dropping the slices directly once the map
// output exists) and asserts the action still completes via the driver's
// fetch-failure resubmission.
func TestKillNodeMidActionResubmitsStage(t *testing.T) {
	defer leaktest.Check(t)()
	ctx := newTestContext(t)
	_, sums := sumByKey(ctx, 64, 4, 4)
	if _, err := Collect(sums); err != nil {
		t.Fatal(err)
	}
	// Drop node 0's slices without re-preparing: the next action's final
	// stage starts from a prepare that sees holes and must recover.
	ctx.KillNode(0)
	got, err := Collect(sums)
	if err != nil {
		t.Fatalf("action after mid-lifecycle node loss: %v", err)
	}
	assertSums(t, got, 64, 4)
}

// TestCloseReleasesEverything runs shuffles and caches, closes the context,
// and asserts all shuffle residency is gone (globally and per node) while
// the context stays usable. Close is idempotent.
func TestCloseReleasesEverything(t *testing.T) {
	defer leaktest.Check(t)()
	ctx := newTestContext(t)
	pairs, sums := sumByKey(ctx, 64, 4, 4)
	pairs.Cache()
	want, err := Collect(sums)
	if err != nil {
		t.Fatal(err)
	}
	_, more := sumByKey(ctx, 32, 4, 2)
	if _, err := Collect(more); err != nil {
		t.Fatal(err)
	}
	if ctx.ShuffleResidentBytes() <= 0 {
		t.Fatal("no shuffle bytes resident before Close")
	}
	if err := ctx.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ctx.ShuffleResidentBytes(); got != 0 {
		t.Fatalf("resident = %d after Close, want 0", got)
	}
	for node := 0; node < 2; node++ {
		if got := ctx.shuffleNodeBytes(node); got != 0 {
			t.Fatalf("node %d holds %d bytes after Close", node, got)
		}
	}
	if err := ctx.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
	got, err := Collect(sums)
	if err != nil {
		t.Fatalf("action after Close: %v", err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-Close result diverged:\n got %v\nwant %v", got, want)
	}
}

// TestShuffleResidentGaugeMatchesCounters cross-checks the context's
// accounting against the telemetry gauge across commits, node losses and
// frees.
func TestShuffleResidentGaugeMatchesCounters(t *testing.T) {
	defer leaktest.Check(t)()
	rec := obs.New()
	ctx := newTestContext(t, WithRecorder(rec))
	_, sums := sumByKey(ctx, 64, 4, 4)
	if _, err := Collect(sums); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if gauge, acct := rec.Counters().ShuffleResidentBytes, ctx.ShuffleResidentBytes(); gauge != acct {
			t.Fatalf("%s: telemetry gauge %d != context accounting %d", when, gauge, acct)
		}
	}
	check("after action")
	ctx.KillNode(0)
	check("after KillNode")
	if _, err := Collect(sums); err != nil {
		t.Fatal(err)
	}
	check("after recovery")
	ctx.Close()
	check("after Close")
	if peak := ctx.ShufflePeakBytes(); peak <= 0 {
		t.Fatalf("peak %d: want a positive high-water mark", peak)
	}
}

// refHashKey is the pre-optimisation hashKey: FNV-1a over fmt's %v
// rendering. The fast path must be byte-identical to it for every key kind,
// or partition assignment (and therefore virtual time) would change.
func refHashKey(v any) uint32 {
	h := fnv.New32a()
	switch x := v.(type) {
	case string:
		h.Write([]byte(x))
	default:
		fmt.Fprintf(h, "%v", x)
	}
	return h.Sum32()
}

func TestHashKeyParity(t *testing.T) {
	if got, want := hashKey("hello"), refHashKey("hello"); got != want {
		t.Fatalf("string: %d != %d", got, want)
	}
	for _, v := range []int64{0, 1, -1, 42, -37, math.MaxInt64, math.MinInt64} {
		if hashKey(int(v)) != refHashKey(int(v)) {
			t.Fatalf("int %d diverges", v)
		}
		if hashKey(v) != refHashKey(v) {
			t.Fatalf("int64 %d diverges", v)
		}
		if hashKey(int8(v)) != refHashKey(int8(v)) {
			t.Fatalf("int8 %d diverges", int8(v))
		}
		if hashKey(int16(v)) != refHashKey(int16(v)) {
			t.Fatalf("int16 %d diverges", int16(v))
		}
		if hashKey(int32(v)) != refHashKey(int32(v)) {
			t.Fatalf("int32 %d diverges", int32(v))
		}
	}
	for _, v := range []uint64{0, 1, 255, 1 << 40, math.MaxUint64} {
		if hashKey(uint(v)) != refHashKey(uint(v)) {
			t.Fatalf("uint %d diverges", v)
		}
		if hashKey(v) != refHashKey(v) {
			t.Fatalf("uint64 %d diverges", v)
		}
		if hashKey(uint8(v)) != refHashKey(uint8(v)) {
			t.Fatalf("uint8 %d diverges", uint8(v))
		}
		if hashKey(uint16(v)) != refHashKey(uint16(v)) {
			t.Fatalf("uint16 %d diverges", uint16(v))
		}
		if hashKey(uint32(v)) != refHashKey(uint32(v)) {
			t.Fatalf("uint32 %d diverges", uint32(v))
		}
		if hashKey(uintptr(v)) != refHashKey(uintptr(v)) {
			t.Fatalf("uintptr %d diverges", uintptr(v))
		}
	}
	for _, v := range []float64{0, 1, -1, 0.5, 1e300, -1e-300, 3.14159265358979,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		if hashKey(v) != refHashKey(v) {
			t.Fatalf("float64 %v diverges", v)
		}
		if hashKey(float32(v)) != refHashKey(float32(v)) {
			t.Fatalf("float32 %v diverges", float32(v))
		}
	}
	// Named types take the fmt fallback in both implementations.
	type myKey int32
	if hashKey(myKey(7)) != refHashKey(myKey(7)) {
		t.Fatal("named type diverges")
	}

	cases := []any{
		func(x int) bool { return hashKey(x) == refHashKey(x) },
		func(x int64) bool { return hashKey(x) == refHashKey(x) },
		func(x uint64) bool { return hashKey(x) == refHashKey(x) },
		func(x float64) bool { return hashKey(x) == refHashKey(x) },
		func(x string) bool { return hashKey(x) == refHashKey(x) },
	}
	for _, fn := range cases {
		if err := quick.Check(fn, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkHashKeyInt(b *testing.B) {
	b.ReportAllocs()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += hashKey(i)
	}
	_ = sink
}

func BenchmarkHashKeyString(b *testing.B) {
	b.ReportAllocs()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += hashKey("transaction-key")
	}
	_ = sink
}
