package rdd

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"yafim/internal/chaos"
	"yafim/internal/cluster"
	"yafim/internal/dfs"
	"yafim/internal/obs"
	"yafim/internal/sim"
)

// chaosWorkload runs a small two-job pipeline — cache, count, shuffle — and
// returns the shuffled pairs plus the context, so tests can compare chaotic
// runs against fault-free ones.
func chaosWorkload(t *testing.T, opts ...Option) ([]Pair[string, int64], *Context) {
	t.Helper()
	ctx, err := NewContext(cluster.Local(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	var data []Pair[string, int64]
	for i := 0; i < 400; i++ {
		data = append(data, Pair[string, int64]{Key: fmt.Sprintf("k%d", i%37), Value: 1})
	}
	pairs := Parallelize(ctx, "pairs", data, 16).Cache()
	if _, err := Count(pairs); err != nil {
		t.Fatal(err)
	}
	counted := ReduceByKey(pairs, "counted", func(a, b int64) int64 { return a + b }, 8)
	out, err := Collect(counted)
	if err != nil {
		t.Fatal(err)
	}
	return out, ctx
}

func pairsEqual(a, b []Pair[string, int64]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestChaosTaskFailuresPreserveResults(t *testing.T) {
	want, _ := chaosWorkload(t)
	rec := obs.New()
	got, _ := chaosWorkload(t,
		WithChaos(&chaos.Plan{Seed: 11, TaskFailProb: 0.3}),
		WithRecorder(rec))
	if !pairsEqual(got, want) {
		t.Fatal("results under injected task failures differ from fault-free run")
	}
	c := rec.Counters()
	if c.TaskRetries == 0 {
		t.Fatal("30% failure probability produced no retries")
	}
	if c.WastedCost == (sim.Cost{}) {
		t.Fatal("injected failures wasted no cost")
	}
}

func TestChaosFetchFailureRecoversViaLineage(t *testing.T) {
	want, _ := chaosWorkload(t)
	rec := obs.New()
	got, _ := chaosWorkload(t,
		WithChaos(&chaos.Plan{Seed: 5, FetchFailProb: 1}),
		WithRecorder(rec))
	if !pairsEqual(got, want) {
		t.Fatal("results under fetch failures differ from fault-free run")
	}
	c := rec.Counters()
	if c.FetchFailures == 0 || c.StagesRerun == 0 {
		t.Fatalf("fetch failures not recorded: %+v", c)
	}
	// The parent is cached, so recovery should mostly hit the cache.
	if c.CacheHits == 0 {
		t.Fatal("lineage recovery never hit the parent cache")
	}
}

func TestChaosDeterministicAcrossRuns(t *testing.T) {
	plan := &chaos.Plan{
		Seed:          99,
		TaskFailProb:  0.2,
		FetchFailProb: 0.3,
		Stragglers:    []chaos.Straggler{{Node: 0, Factor: 3}},
	}
	rec1, rec2 := obs.New(), obs.New()
	out1, ctx1 := chaosWorkload(t, WithChaos(plan), WithRecorder(rec1))
	out2, ctx2 := chaosWorkload(t, WithChaos(plan), WithRecorder(rec2))
	if !pairsEqual(out1, out2) {
		t.Fatal("identical seeds produced different results")
	}
	if d1, d2 := ctx1.TotalDuration(), ctx2.TotalDuration(); d1 != d2 {
		t.Fatalf("identical seeds produced different makespans: %v vs %v", d1, d2)
	}
	if c1, c2 := rec1.Counters(), rec2.Counters(); c1 != c2 {
		t.Fatalf("identical seeds produced different counters:\n%+v\n%+v", c1, c2)
	}
	var t1, t2 bytes.Buffer
	if err := obs.WriteChromeTrace(&t1, rec1); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteChromeTrace(&t2, rec2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Fatal("identical seeds produced different Chrome traces")
	}
}

func TestChaosStragglerSpeculation(t *testing.T) {
	plan := &chaos.Plan{Seed: 1, Stragglers: []chaos.Straggler{{Node: 1, Factor: 10}}}
	rec := obs.New()
	_, specCtx := chaosWorkload(t, WithChaos(plan), WithRecorder(rec))
	_, plainCtx := chaosWorkload(t, WithChaos(plan), WithResilience(chaos.Resilience{}))
	c := rec.Counters()
	if c.SpeculativeLaunches == 0 || c.SpeculativeWins == 0 {
		t.Fatalf("no speculation against a 10x straggler: %+v", c)
	}
	if specCtx.TotalDuration() >= plainCtx.TotalDuration() {
		t.Fatalf("speculation did not help: %v (spec) vs %v (none)",
			specCtx.TotalDuration(), plainCtx.TotalDuration())
	}
}

func TestChaosBlacklisting(t *testing.T) {
	rec := obs.New()
	want, _ := chaosWorkload(t)
	got, _ := chaosWorkload(t,
		WithChaos(&chaos.Plan{Seed: 4, TaskFailProb: 0.8}),
		WithRecorder(rec))
	if !pairsEqual(got, want) {
		t.Fatal("results under heavy failures differ from fault-free run")
	}
	if rec.Counters().NodesBlacklisted == 0 {
		t.Fatal("80% failure probability never blacklisted a node")
	}
}

// TestChaosCrashMidJobRecomputesFromLineage is the mid-job KillNode
// coverage: the planned crash fires between two stages of the run, evicting
// the dead node's cached partitions, and the next stage transparently
// recomputes them from lineage — visible as evictions, cache misses and
// lineage recomputes, with byte-identical results.
func TestChaosCrashMidJobRecomputesFromLineage(t *testing.T) {
	// Fault-free reference run, also used to pick a crash time that lands
	// after the first job (which populates the cache) but before the end.
	want, refCtx := chaosWorkload(t)
	reports := refCtx.Reports()
	if len(reports) < 2 {
		t.Fatalf("workload ran %d jobs, want >= 2", len(reports))
	}
	// Exactly the first job's duration: the crash fires inside the second
	// job, at the boundary before its shuffle-map stage — which is the stage
	// that re-reads the cached partitions and must recompute the lost ones.
	crashAt := reports[0].Duration()

	rec := obs.New()
	got, ctx := chaosWorkload(t,
		WithChaos(&chaos.Plan{Seed: 2, Crash: &chaos.NodeCrash{Node: 1, At: crashAt}}),
		WithRecorder(rec))
	if !pairsEqual(got, want) {
		t.Fatal("results after mid-job node crash differ from fault-free run")
	}
	c := rec.Counters()
	if c.CacheEvictions == 0 {
		t.Fatal("node crash evicted no cached partitions")
	}
	if c.LineageRecomputes == 0 {
		t.Fatal("lost cached partitions were not recomputed from lineage")
	}
	if c.CacheMisses == 0 {
		t.Fatal("recomputation did not register cache misses")
	}
	// The crash makes the run slower, never wrong.
	if ctx.TotalDuration() <= refCtx.TotalDuration() {
		t.Fatalf("crashed run not slower: %v vs fault-free %v",
			ctx.TotalDuration(), refCtx.TotalDuration())
	}
}

func TestChaosCrashKillsDFSReplicas(t *testing.T) {
	run := func(opts ...Option) (int64, *Context, *dfs.FileSystem) {
		// Three nodes with 2x replication so a healthy node that does not
		// already hold a lost block exists as a re-replication target.
		ctx, err := NewContext(cluster.Local().WithNodes(3), opts...)
		if err != nil {
			t.Fatal(err)
		}
		fs := dfs.New(ctx.Config().Nodes, dfs.WithBlockSize(64), dfs.WithReplication(2))
		var buf bytes.Buffer
		for i := 0; i < 200; i++ {
			fmt.Fprintf(&buf, "line-%d\n", i)
		}
		if err := fs.WriteFile("/input", buf.Bytes(), nil); err != nil {
			t.Fatal(err)
		}
		fs.SetRecorder(ctx.Recorder())
		lines, err := TextFile(ctx, fs, "/input", 8)
		if err != nil {
			t.Fatal(err)
		}
		lines = lines.Cache()
		n1, err := Count(lines)
		if err != nil {
			t.Fatal(err)
		}
		n2, err := Count(lines)
		if err != nil {
			t.Fatal(err)
		}
		if n1 != n2 || n1 != 200 {
			t.Fatalf("counts diverged: %d vs %d", n1, n2)
		}
		return n1, ctx, fs
	}

	_, refCtx, _ := run()
	// Half the first job: guaranteed to have passed by the time the second
	// job's stage boundary checks the clock, even if mitigation shortens the
	// chaotic run's first job.
	crashAt := refCtx.Reports()[0].Duration() / 2

	rec := obs.New()
	_, _, fs := run(
		WithChaos(&chaos.Plan{Seed: 3, Crash: &chaos.NodeCrash{Node: 1, At: crashAt}}),
		WithRecorder(rec))
	splits, err := fs.Splits("/input")
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range splits {
		if slices.Contains(sp.Locations, 1) {
			t.Fatalf("crash did not propagate to the registered filesystem: block at %d still on node 1", sp.Offset)
		}
	}
	if rec.Counters().ReReplicatedBlocks == 0 {
		t.Fatal("no blocks re-replicated after the crash")
	}
}

func TestChaosBlockReadFailures(t *testing.T) {
	ctx, err := NewContext(cluster.Local(),
		WithChaos(&chaos.Plan{Seed: 8, BlockReadFailProb: 1}))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	ctx.rec = rec
	fs := dfs.New(ctx.Config().Nodes, dfs.WithBlockSize(64), dfs.WithReplication(2))
	fs.SetRecorder(rec)
	var buf bytes.Buffer
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&buf, "row-%d\n", i)
	}
	fs.WriteFile("/in", buf.Bytes(), nil)
	lines, err := TextFile(ctx, fs, "/in", 4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Count(lines)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("count = %d, want 50", n)
	}
	if rec.Counters().BlockReadRetries == 0 {
		t.Fatal("certain block-read failure never triggered a retry")
	}
}

func TestNewContextRejectsInvalidPlan(t *testing.T) {
	_, err := NewContext(cluster.Local(), WithChaos(&chaos.Plan{TaskFailProb: 2}))
	if err == nil {
		t.Fatal("invalid chaos plan accepted")
	}
}

func TestChaosNeverFailsJobs(t *testing.T) {
	// Even at extreme probabilities, injection leaves the last permitted
	// attempt clean, so jobs always complete.
	plan := &chaos.Plan{Seed: 13, TaskFailProb: 1, FetchFailProb: 1, BlockReadFailProb: 1}
	want, _ := chaosWorkload(t)
	got, _ := chaosWorkload(t, WithChaos(plan))
	if !pairsEqual(got, want) {
		t.Fatal("maximum chaos changed the results")
	}
}
