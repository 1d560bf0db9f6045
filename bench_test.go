package yafim

// Benchmark harness regenerating the paper's evaluation. One benchmark per
// table/figure; each runs the corresponding experiment on scaled-down
// datasets (the cmd/experiments binary runs them at paper scale) and
// reports the simulated cluster time and speedups as custom metrics:
//
//	virt-sec      simulated cluster seconds for the run
//	speedup-x     MRApriori total time over YAFIM total time
//	benefit-x     ablation: feature-off time over feature-on time
//
// Absolute wall-clock ns/op measures the simulator itself, not the paper's
// testbed; the custom metrics carry the reproduced results.

import (
	"context"
	"io"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"yafim/internal/apriori"
	"yafim/internal/dataset"
	"yafim/internal/dfs"
	"yafim/internal/experiments"
	"yafim/internal/hashtree"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/mrapriori"
	"yafim/internal/obs"
	"yafim/internal/rdd"
	"yafim/internal/rddeclat"
	"yafim/internal/shuffle"
	"yafim/internal/yafim"
)

// benchEnv shrinks datasets so a full -bench=. sweep stays in the minutes
// range while preserving every reported shape.
func benchEnv() experiments.Env {
	env := experiments.DefaultEnv()
	env.Scale = 0.1
	return env
}

func benchmarkNames() []string {
	return []string{"MushRoom", "T10I4D100K", "Chess", "Pumsb_star"}
}

func mustBenchmark(b *testing.B, name string) experiments.Benchmark {
	b.Helper()
	bm, err := experiments.FindBenchmark(name)
	if err != nil {
		b.Fatal(err)
	}
	return bm
}

// BenchmarkTable1DatasetProperties regenerates Table I.
func BenchmarkTable1DatasetProperties(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable1(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig3PerIteration regenerates Fig. 3: per-pass execution time of
// YAFIM vs MRApriori on each benchmark dataset.
func BenchmarkFig3PerIteration(b *testing.B) {
	env := benchEnv()
	for _, name := range benchmarkNames() {
		bm := mustBenchmark(b, name)
		b.Run(name, func(b *testing.B) {
			var lastSpeedup float64
			var virtSecs float64
			for i := 0; i < b.N; i++ {
				c, err := experiments.RunComparison(context.Background(), bm, env)
				if err != nil {
					b.Fatal(err)
				}
				lastSpeedup = c.Speedup()
				virtSecs = c.YAFIM.TotalDuration().Seconds()
			}
			b.ReportMetric(lastSpeedup, "speedup-x")
			b.ReportMetric(virtSecs, "yafim-virt-sec")
		})
	}
}

// BenchmarkFig4Sizeup regenerates Fig. 4: total time at 1x..6x replication
// on 48 cores.
func BenchmarkFig4Sizeup(b *testing.B) {
	env := benchEnv()
	env.Scale = 0.05
	for _, name := range benchmarkNames() {
		bm := mustBenchmark(b, name)
		b.Run(name, func(b *testing.B) {
			var yGrow, mGrow float64
			for i := 0; i < b.N; i++ {
				s, err := experiments.RunSizeup(context.Background(), bm, env, []int{1, 3, 6})
				if err != nil {
					b.Fatal(err)
				}
				yGrow = float64(s.YAFIM[2]) / float64(s.YAFIM[0])
				mGrow = float64(s.MRApriori[2]) / float64(s.MRApriori[0])
			}
			b.ReportMetric(yGrow, "yafim-growth-x")
			b.ReportMetric(mGrow, "mr-growth-x")
		})
	}
}

// BenchmarkFig5Speedup regenerates Fig. 5: YAFIM total time at 4..12 nodes.
func BenchmarkFig5Speedup(b *testing.B) {
	env := benchEnv()
	env.Scale = 0.05
	for _, name := range benchmarkNames() {
		bm := mustBenchmark(b, name)
		b.Run(name, func(b *testing.B) {
			var rel float64
			for i := 0; i < b.N; i++ {
				s, err := experiments.RunSpeedup(context.Background(), bm, env, []int{4, 8, 12}, 6)
				if err != nil {
					b.Fatal(err)
				}
				r := s.Relative()
				rel = r[len(r)-1]
			}
			b.ReportMetric(rel, "scaleup-4to12-x")
		})
	}
}

// BenchmarkFig6Medical regenerates Fig. 6: the medical application
// comparison at Sup = 3%.
func BenchmarkFig6Medical(b *testing.B) {
	env := benchEnv()
	var speedup float64
	for i := 0; i < b.N; i++ {
		c, err := experiments.RunComparison(context.Background(), experiments.MedicalBenchmark(), env)
		if err != nil {
			b.Fatal(err)
		}
		speedup = c.Speedup()
	}
	b.ReportMetric(speedup, "speedup-x")
}

// BenchmarkSummaryAverageSpeedup regenerates the abstract's headline claim
// (about 18x on average across the four benchmarks).
func BenchmarkSummaryAverageSpeedup(b *testing.B) {
	env := benchEnv()
	env.Scale = 0.05
	var avg float64
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunSummary(context.Background(), env)
		if err != nil {
			b.Fatal(err)
		}
		avg = s.AverageSpeedup()
	}
	b.ReportMetric(avg, "avg-speedup-x")
}

// ---------------------------------------------------------------------------
// Pass-2 counting-kernel benchmarks.
//
// These are the perf-gated benchmarks behind `make bench-json`: run with
// -benchmem, their B/op and allocs/op, which CI lets grow by at most 20%,
// and their exact metrics (virt-sec, counts), which it holds to their
// baseline, form the committed BENCH_*.json trajectory. They isolate the
// Phase-II hot path the paper's Fig. 3 speedups live on: candidate store
// construction + subset enumeration + support counting; the split-decode
// and LoadFile rows gate the parser that feeds it.
// ---------------------------------------------------------------------------

// pass2Fixture generates the candidate-heavy kernel workload: scaled
// T10-style transactions plus the pass-2 candidates YAFIM would derive from
// the frequent items.
func pass2Fixture(tb testing.TB) ([]itemset.Transaction, []itemset.Itemset) {
	return kernelFixture(tb, "T10I4D100K", 0.05)
}

// kernelFixture generates a paper benchmark dataset at scale plus the
// pass-2 candidates YAFIM would derive from its frequent items at the
// benchmark's Fig. 3 support.
func kernelFixture(tb testing.TB, name string, scale float64) ([]itemset.Transaction, []itemset.Itemset) {
	tb.Helper()
	db, l1 := levelFixture(tb, name, scale, 1)
	cands, err := apriori.Gen(l1)
	if err != nil {
		tb.Fatal(err)
	}
	if len(cands) == 0 {
		tb.Fatal("fixture generated no pass-2 candidates")
	}
	return db.Transactions, cands
}

// levelFixture generates a paper benchmark dataset at scale and its
// frequent k-itemsets L_k at the benchmark's Fig. 3 support.
func levelFixture(tb testing.TB, name string, scale float64, k int) (*itemset.DB, []itemset.Itemset) {
	tb.Helper()
	bm, err := experiments.FindBenchmark(name)
	if err != nil {
		tb.Fatal(err)
	}
	db, err := bm.Gen(scale, benchEnv().Seed)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := apriori.Mine(db, bm.Support, apriori.Options{MaxK: k})
	if err != nil {
		tb.Fatal(err)
	}
	return db, apriori.SetsOf(res.Frequent(k))
}

// TestRegistryAddsNoAllocsToPass2Kernel pins the metering promise of the
// metrics registry on the pass-2 hot path: through handles created and
// materialized before measuring, a duration observation plus a task count
// add exactly zero allocations per operation on top of the counting kernel.
// It does not measure Recorder.AddStage, which looks its handles up in the
// registry on every call.
func TestRegistryAddsNoAllocsToPass2Kernel(t *testing.T) {
	txs, cands := pass2Fixture(t)
	tree := hashtree.Build(cands)
	rec := NewRecorder()
	reg := rec.Metrics()
	h := reg.Histogram("yafim_task_duration_seconds",
		"Virtual duration of each scheduled task attempt interval.",
		obs.DurationBuckets, "engine", "rdd")
	c := reg.Counter("yafim_tasks_total", "Tasks scheduled, by engine.",
		"engine", "rdd")
	h.Observe(0.001) // materialize the series before measuring
	c.Add(1)

	kernel := func() {
		counts, _ := tree.CountSupports(txs)
		_ = counts
	}
	bare := testing.AllocsPerRun(5, kernel)
	observed := testing.AllocsPerRun(5, func() {
		kernel()
		h.Observe(0.004)
		c.Add(1)
	})
	if observed != bare {
		t.Fatalf("registry added %.1f allocs/op to the pass-2 kernel (bare %.1f, observed %.1f)",
			observed-bare, bare, observed)
	}
}

// BenchmarkPass2KernelHashTree measures the flat hash-tree counting kernel:
// dense per-scan count array, one matcher's scratch reused across rows,
// leaf entries tested against the row's item signature and confirmed
// against its stamped item ids.
func BenchmarkPass2KernelHashTree(b *testing.B) {
	txs, cands := pass2Fixture(b)
	benchCountSupports(b, txs, cands)
}

// BenchmarkPass2KernelHashTreeChess measures the same kernel on dense
// Chess rows at 85%: every row holds 37 items, and the pass-2 tree's few
// dense items fit one 64-bit signature, so each leaf entry is decided by
// its signature alone. The T10 row above, with hundreds of dense items,
// measures the path that confirms a passing signature against the stamps.
func BenchmarkPass2KernelHashTreeChess(b *testing.B) {
	txs, cands := kernelFixture(b, "Chess", 1)
	benchCountSupports(b, txs, cands)
}

// benchCountSupports times one CountSupports scan of txs per op over a
// hash tree of cands, and reports how many candidates occur at all.
func benchCountSupports(b *testing.B, txs []itemset.Transaction, cands []itemset.Itemset) {
	tree := hashtree.Build(cands)
	b.ReportAllocs()
	b.ResetTimer()
	var matched int
	for i := 0; i < b.N; i++ {
		counts, _ := tree.CountSupports(txs)
		matched = 0
		for _, c := range counts {
			if c != 0 {
				matched++
			}
		}
	}
	b.ReportMetric(float64(len(cands)), "cands")
	b.ReportMetric(float64(matched), "matched")
}

// BenchmarkCandidateGen measures candidate generation past the first pass:
// apriori.Gen's join and prune over L_2 of the pass-2 fixture's data, which
// yields C_3.
func BenchmarkCandidateGen(b *testing.B) {
	_, l2 := levelFixture(b, "T10I4D100K", 0.05, 2)
	b.ReportAllocs()
	b.ResetTimer()
	var cands []itemset.Itemset
	for i := 0; i < b.N; i++ {
		var err error
		if cands, err = apriori.Gen(l2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cands)), "cands")
}

// BenchmarkPass2KernelBuild measures candidate-store construction (the
// per-pass broadcast payload): pointer insert + flat compaction + remap.
func BenchmarkPass2KernelBuild(b *testing.B) {
	_, cands := pass2Fixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := hashtree.Build(cands)
		_ = tree
	}
}

// BenchmarkPass2YAFIM runs the full YAFIM pipeline on the candidate-heavy
// dataset — the dense count-flush kernel plus the combiner shuffle — and
// reports the simulated cluster seconds next to the real allocation rate.
func BenchmarkPass2YAFIM(b *testing.B) {
	env := benchEnv()
	bm := mustBenchmark(b, "T10I4D100K")
	db, err := bm.Gen(0.05, env.Seed)
	if err != nil {
		b.Fatal(err)
	}
	tasks := 2 * env.Spark.TotalCores()
	b.ReportAllocs()
	b.ResetTimer()
	var virt float64
	for i := 0; i < b.N; i++ {
		trace, _, err := experiments.RunYAFIM(context.Background(), db, bm.Support,
			env.Spark, tasks, yafim.Config{})
		if err != nil {
			b.Fatal(err)
		}
		virt = trace.TotalDuration().Seconds()
	}
	b.ReportMetric(virt, "virt-sec")
}

// BenchmarkShuffleResident measures the shuffle lifecycle manager on the
// full mining run: peak resident map-output bytes (with the facade's
// pass-boundary frees this is roughly one pass's shuffle volume, not the
// whole run's) and the bytes still resident after mining (must be 0 once
// FreeShuffles runs). Both metrics are deterministic virtual quantities and are
// perf-gated like virt-sec.
func BenchmarkShuffleResident(b *testing.B) {
	env := benchEnv()
	bm := mustBenchmark(b, "T10I4D100K")
	db, err := bm.Gen(0.05, env.Seed)
	if err != nil {
		b.Fatal(err)
	}
	tasks := 2 * env.Spark.TotalCores()
	b.ReportAllocs()
	b.ResetTimer()
	var peak, final float64
	for i := 0; i < b.N; i++ {
		_, ctx, err := experiments.RunYAFIM(context.Background(), db, bm.Support,
			env.Spark, tasks, yafim.Config{})
		if err != nil {
			b.Fatal(err)
		}
		ctx.FreeShuffles()
		peak = float64(ctx.ShufflePeakBytes())
		final = float64(ctx.ShuffleResidentBytes())
	}
	b.ReportMetric(peak, "peak-resident-bytes")
	b.ReportMetric(final, "final-resident-bytes")
}

// BenchmarkShuffleFrame measures the MapReduce shuffle's wire frame on a
// pass-2 count job's shape: the <candidate, count> records one map task
// over the candidate-heavy workload files in one of four reduce partitions,
// encoded as a worker serves its run and parsed as a reducer reads it.
func BenchmarkShuffleFrame(b *testing.B) {
	txs, cands := pass2Fixture(b)
	counts, _ := hashtree.Build(cands).CountSupports(txs)
	var run mapreduce.Run
	for i, c := range counts {
		if key := mrapriori.SetKey(cands[i]); c != 0 && shuffle.HashKey(key)%4 == 0 {
			run = append(run, shuffle.Pair[string, []string]{Key: key, Value: []string{strconv.Itoa(c)}})
		}
	}
	slices.SortFunc(run, func(x, y shuffle.Pair[string, []string]) int { return strings.Compare(x.Key, y.Key) })
	b.ReportAllocs()
	b.ResetTimer()
	var frame []byte
	for i := 0; i < b.N; i++ {
		frame = mapreduce.AppendRun(nil, run)
		if _, err := mapreduce.ParseRun(frame); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(run)), "records")
	b.ReportMetric(float64(len(frame)), "frame-bytes")
}

// BenchmarkDiagnosis measures the diagnosis layer end to end on the
// candidate-heavy workload: an instrumented mining run, the critical-path and
// skew analysis, and every export surface (human report, JSONL journal,
// Prometheus text). virt-sec is the instrumented run's total — metering
// neutrality demands it match BenchmarkPass2YAFIM's virt-sec exactly — and
// the allocation rate is the perf-gated cost of observing a run.
func BenchmarkDiagnosis(b *testing.B) {
	env := benchEnv()
	bm := mustBenchmark(b, "T10I4D100K")
	db, err := bm.Gen(0.05, env.Seed)
	if err != nil {
		b.Fatal(err)
	}
	tasks := 2 * env.Spark.TotalCores()
	b.ReportAllocs()
	b.ResetTimer()
	var virt, steps, stragglers float64
	for i := 0; i < b.N; i++ {
		rec := NewRecorder()
		trace, _, err := experiments.RunYAFIM(context.Background(), db, bm.Support,
			env.Spark, tasks, yafim.Config{}, rdd.WithRecorder(rec))
		if err != nil {
			b.Fatal(err)
		}
		cfg := env.Spark
		d := Diagnose(rec, &cfg)
		if err := d.Validate(); err != nil {
			b.Fatal(err)
		}
		if err := WriteDiagnosis(io.Discard, d); err != nil {
			b.Fatal(err)
		}
		if err := WriteJournal(io.Discard, rec); err != nil {
			b.Fatal(err)
		}
		if err := WritePrometheus(io.Discard, rec); err != nil {
			b.Fatal(err)
		}
		virt = trace.TotalDuration().Seconds()
		steps = float64(len(d.CriticalPath))
		stragglers = 0
		for _, st := range d.Stages {
			stragglers += float64(len(st.Stragglers))
		}
	}
	b.ReportMetric(virt, "virt-sec")
	b.ReportMetric(steps, "critical-steps")
	b.ReportMetric(stragglers, "stragglers")
}

// benchSplit stages the T10I4D100K file BenchmarkPass2YAFIM mines and
// returns the DFS and its first split, cut as that run cuts it.
func benchSplit(b *testing.B) (*dfs.FileSystem, dfs.Split) {
	env := benchEnv()
	db, err := mustBenchmark(b, "T10I4D100K").Gen(0.05, env.Seed)
	if err != nil {
		b.Fatal(err)
	}
	fs := dfs.New(env.Spark.Nodes)
	if _, err := dataset.Stage(fs, "/bench/t10.dat", db); err != nil {
		b.Fatal(err)
	}
	splits, err := fs.SplitsN("/bench/t10.dat", 2*env.Spark.TotalCores())
	if err != nil {
		b.Fatal(err)
	}
	return fs, splits[0]
}

// reportRows reports the rows a benchmark read and their items.
func reportRows(b *testing.B, rows []itemset.Itemset) {
	items := 0
	for _, r := range rows {
		items += len(r)
	}
	b.ReportMetric(float64(len(rows)), "records")
	b.ReportMetric(float64(items), "items")
}

// BenchmarkSplitDecode measures the one .dat parser on a map task's input:
// mapreduce.ReadRecords over the lines of benchSplit's split, read once up
// front.
func BenchmarkSplitDecode(b *testing.B) {
	fs, split := benchSplit(b)
	lines, first, err := fs.ReadLinesContext(context.Background(), split, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rows []itemset.Itemset
	for i := 0; i < b.N; i++ {
		if rows, _, err = mapreduce.ReadRecords(lines, first); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkSplitRead measures what a MapReduce map task does before it
// maps: dfs.ReadLinesContext cuts benchSplit's split into lines, and
// mapreduce.ReadRecords parses them.
func BenchmarkSplitRead(b *testing.B) {
	fs, split := benchSplit(b)
	b.ReportAllocs()
	b.ResetTimer()
	var rows []itemset.Itemset
	for i := 0; i < b.N; i++ {
		lines, first, err := fs.ReadLinesContext(context.Background(), split, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rows, _, err = mapreduce.ReadRecords(lines, first); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkLoadFileT10 measures LoadFile, which perfbench's setup_s times,
// on the T10I4D100K file BenchmarkPass2YAFIM mines.
func BenchmarkLoadFileT10(b *testing.B) {
	benchLoadFile(b, "T10I4D100K", 0.05)
}

// BenchmarkLoadFileChess measures LoadFile on Chess x5, the chess-dist
// input, whose rows of 37 short items weigh the text against the items
// differently.
func BenchmarkLoadFileChess(b *testing.B) {
	benchLoadFile(b, "Chess", 5)
}

// benchLoadFile writes the benchmark dataset at scale to a file once and
// times one LoadFile of it per op.
func benchLoadFile(b *testing.B, name string, scale float64) {
	db, err := mustBenchmark(b, name).Gen(scale, benchEnv().Seed)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), name+".dat")
	if err := SaveFile(db, path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var loaded *DB
	for i := 0; i < b.N; i++ {
		if loaded, err = LoadFile(name, path); err != nil {
			b.Fatal(err)
		}
	}
	items := 0
	for _, t := range loaded.Transactions {
		items += len(t.Items)
	}
	b.ReportMetric(float64(loaded.Len()), "records")
	b.ReportMetric(float64(items), "items")
}

// BenchmarkPass2MRApriori runs the MapReduce comparator's counting passes
// with the in-mapper combining kernel.
func BenchmarkPass2MRApriori(b *testing.B) {
	env := benchEnv()
	bm := mustBenchmark(b, "T10I4D100K")
	db, err := bm.Gen(0.05, env.Seed)
	if err != nil {
		b.Fatal(err)
	}
	tasks := 2 * env.Hadoop.TotalCores()
	b.ReportAllocs()
	b.ResetTimer()
	var virt float64
	for i := 0; i < b.N; i++ {
		trace, _, err := experiments.RunMRApriori(context.Background(), db, bm.Support,
			env.Hadoop, tasks, mrapriori.Config{}, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		virt = trace.TotalDuration().Seconds()
	}
	b.ReportMetric(virt, "virt-sec")
}

// BenchmarkPass2KernelEclatBitset measures the vertical counting kernel on
// the same candidate-heavy workload: one transaction bitset per frequent
// item (dense ItemIndex ids), pass-2 support by fused word-at-a-time
// AND+popcount over every item pair — the representation RDD-Eclat swaps in
// for the hash tree's subset enumeration.
func BenchmarkPass2KernelEclatBitset(b *testing.B) {
	bm := mustBenchmark(b, "T10I4D100K")
	db, err := bm.Gen(0.05, benchEnv().Seed)
	if err != nil {
		b.Fatal(err)
	}
	l1, err := apriori.Mine(db, bm.Support, apriori.Options{MaxK: 1})
	if err != nil {
		b.Fatal(err)
	}
	var items []itemset.Itemset
	for _, sc := range l1.Levels[0].Sets {
		items = append(items, sc.Set)
	}
	ix := itemset.NewItemIndex(items)
	m := ix.Len()
	bits := make([]*itemset.Bitset, m)
	for d := range bits {
		bits[d] = itemset.NewBitset(db.Len())
	}
	for ti, tr := range db.Transactions {
		for _, it := range tr.Items {
			if d := ix.DenseOf(it); d >= 0 {
				bits[d].Set(ti)
			}
		}
	}
	minCount := db.MinSupportCount(bm.Support)
	b.ReportAllocs()
	b.ResetTimer()
	var frequent int
	for i := 0; i < b.N; i++ {
		frequent = 0
		for x := 0; x < m; x++ {
			for y := x + 1; y < m; y++ {
				if bits[x].AndCount(bits[y]) >= minCount {
					frequent++
				}
			}
		}
	}
	b.ReportMetric(float64(m*(m-1)/2), "cands")
	b.ReportMetric(float64(frequent), "frequent")
}

// BenchmarkPass2RDDEclat runs the full RDD-Eclat pipeline on the
// candidate-heavy dataset — vertical shuffle, broadcast bitsets,
// equivalence-class intersection — and reports simulated cluster seconds
// next to the real allocation rate, the vertical row of the engine matrix
// beside BenchmarkPass2YAFIM and BenchmarkPass2MRApriori.
func BenchmarkPass2RDDEclat(b *testing.B) {
	env := benchEnv()
	bm := mustBenchmark(b, "T10I4D100K")
	db, err := bm.Gen(0.05, env.Seed)
	if err != nil {
		b.Fatal(err)
	}
	tasks := 2 * env.Spark.TotalCores()
	b.ReportAllocs()
	b.ResetTimer()
	var virt float64
	for i := 0; i < b.N; i++ {
		trace, _, err := experiments.RunRDDEclat(context.Background(), db, bm.Support,
			env.Spark, tasks, rddeclat.Config{})
		if err != nil {
			b.Fatal(err)
		}
		virt = trace.TotalDuration().Seconds()
	}
	b.ReportMetric(virt, "virt-sec")
}

// BenchmarkAblationBroadcast measures §IV-C: broadcast variables vs naive
// per-task shipping.
func BenchmarkAblationBroadcast(b *testing.B) {
	env := benchEnv()
	bm := mustBenchmark(b, "MushRoom")
	var benefit float64
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunBroadcastAblation(context.Background(), bm, env)
		if err != nil {
			b.Fatal(err)
		}
		benefit = a.Benefit()
	}
	b.ReportMetric(benefit, "benefit-x")
}

// BenchmarkAblationCache measures §IV-B: the cached transactions RDD vs
// re-reading input every pass.
func BenchmarkAblationCache(b *testing.B) {
	env := benchEnv()
	bm := mustBenchmark(b, "MushRoom")
	var benefit float64
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunCacheAblation(context.Background(), bm, env)
		if err != nil {
			b.Fatal(err)
		}
		benefit = a.Benefit()
	}
	b.ReportMetric(benefit, "benefit-x")
}

// BenchmarkAblationHashTree measures §IV-A: hash-tree candidate matching vs
// a brute-force candidate scan, on the candidate-heavy synthetic dataset.
func BenchmarkAblationHashTree(b *testing.B) {
	env := benchEnv()
	env.Scale = 0.05
	bm := mustBenchmark(b, "T10I4D100K")
	var benefit float64
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunHashTreeAblation(context.Background(), bm, env)
		if err != nil {
			b.Fatal(err)
		}
		benefit = a.Benefit()
	}
	b.ReportMetric(benefit, "benefit-x")
}
