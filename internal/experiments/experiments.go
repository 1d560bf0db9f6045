// Package experiments reproduces the paper's evaluation (§V): Table I and
// Figures 3–6, plus the ablations motivated by §IV's design discussion.
// Each experiment generates its workload with internal/datagen, runs YAFIM
// on the Spark-substitute cluster and/or MRApriori on the Hadoop-substitute
// cluster, verifies the two produce identical itemsets, and reports the
// virtual-time series the paper plots.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"yafim/internal/apriori"
	"yafim/internal/chaos"
	"yafim/internal/cluster"
	"yafim/internal/datagen"
	"yafim/internal/dataset"
	"yafim/internal/dfs"
	"yafim/internal/disteclat"
	"yafim/internal/exec"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/mrapriori"
	"yafim/internal/obs"
	"yafim/internal/rdd"
	"yafim/internal/rddeclat"
	"yafim/internal/yafim"
)

// Benchmark names one evaluation dataset with its paper support threshold.
type Benchmark struct {
	Name    string
	Support float64
	Gen     func(scale float64, seed int64) (*itemset.DB, error)
}

// PaperBenchmarks returns the four benchmark datasets of Table I with the
// support thresholds of Fig. 3: MushRoom (35%), T10I4D100K (0.25%),
// Chess (85%) and Pumsb_star (65%).
func PaperBenchmarks() []Benchmark {
	return []Benchmark{
		{Name: "MushRoom", Support: 0.35, Gen: datagen.MushroomLike},
		{Name: "T10I4D100K", Support: 0.0025, Gen: datagen.T10I4D100K},
		{Name: "Chess", Support: 0.85, Gen: datagen.ChessLike},
		{Name: "Pumsb_star", Support: 0.65, Gen: datagen.PumsbStarLike},
	}
}

// MedicalBenchmark returns the §V-D medical case dataset (Sup = 3%).
func MedicalBenchmark() Benchmark {
	return Benchmark{Name: "MedicalCases", Support: 0.03, Gen: datagen.MedicalCases}
}

// FindBenchmark resolves a benchmark by name across the paper set and the
// medical application.
func FindBenchmark(name string) (Benchmark, error) {
	for _, b := range append(PaperBenchmarks(), MedicalBenchmark()) {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("experiments: unknown benchmark %q", name)
}

// Env fixes the environment of an experiment run.
type Env struct {
	// Scale multiplies dataset transaction counts (1.0 = paper size).
	Scale float64
	// Seed drives all data generation.
	Seed int64
	// Spark and Hadoop are the two runtime profiles on the paper's hardware.
	Spark, Hadoop cluster.Config
	// Tasks is the task-granularity hint (input splits and reduce tasks);
	// 0 means twice the cluster's core count, the usual Spark guidance.
	Tasks int
}

// DefaultEnv is the paper's environment at full dataset scale.
func DefaultEnv() Env {
	return Env{
		Scale:  1.0,
		Seed:   2014,
		Spark:  cluster.PaperSpark(),
		Hadoop: cluster.PaperHadoop(),
	}
}

// stagePath names a database's staging location in the simulated DFS,
// avoiding a doubled extension when the dataset is named after a .dat file.
func stagePath(name string) string {
	return "/data/" + strings.TrimSuffix(name, ".dat") + ".dat"
}

func (e Env) tasks(cfg cluster.Config) int {
	if e.Tasks > 0 {
		return e.Tasks
	}
	return 2 * cfg.TotalCores()
}

// stageRDD stages db into a fresh DFS sized for cfg and opens an RDD
// context on cfg, canceled by goCtx, whose recorder also meters the DFS.
func stageRDD(goCtx context.Context, db *itemset.DB, cfg cluster.Config,
	opts []rdd.Option) (*rdd.Context, *dfs.FileSystem, string, error) {
	fs := dfs.New(cfg.Nodes)
	path := stagePath(db.Name)
	if _, err := dataset.Stage(fs, path, db); err != nil {
		return nil, nil, "", err
	}
	ctx, err := rdd.NewContext(cfg, append([]rdd.Option{rdd.WithContext(goCtx)}, opts...)...)
	if err != nil {
		return nil, nil, "", err
	}
	fs.SetRecorder(ctx.Recorder())
	return ctx, fs, path, nil
}

// stageMR stages db into a fresh DFS sized for cfg and opens a MapReduce
// runner on it; the runner and the DFS both report to rec (may be nil).
func stageMR(db *itemset.DB, cfg cluster.Config, rec *obs.Recorder) (*mapreduce.Runner, *dfs.FileSystem, string, error) {
	fs := dfs.New(cfg.Nodes)
	path := stagePath(db.Name)
	if _, err := dataset.Stage(fs, path, db); err != nil {
		return nil, nil, "", err
	}
	runner, err := mapreduce.NewRunner(fs, cfg)
	if err != nil {
		return nil, nil, "", err
	}
	runner.SetRecorder(rec)
	fs.SetRecorder(rec)
	return runner, fs, path, nil
}

// RunYAFIM stages db into a fresh DFS and mines it with YAFIM on the given
// cluster, returning the trace and the driver context (for cost inspection).
// Pass rdd.WithRecorder to capture telemetry; the recorder is also attached
// to the DFS so input I/O is counted. goCtx cancels the run cooperatively at
// the next task boundary (pass context.Background() to run to completion).
func RunYAFIM(goCtx context.Context, db *itemset.DB, support float64, cfg cluster.Config, tasks int,
	mineCfg yafim.Config, opts ...rdd.Option) (*apriori.Trace, *rdd.Context, error) {
	ctx, fs, path, err := stageRDD(goCtx, db, cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	mineCfg.MinSupport = support
	if mineCfg.NumPartitions == 0 {
		mineCfg.NumPartitions = tasks
	}
	trace, err := yafim.Mine(ctx, fs, path, mineCfg)
	if err != nil {
		return nil, nil, err
	}
	return trace, ctx, nil
}

// RunDistEclat stages db into a fresh DFS and mines it with Dist-Eclat on
// the given cluster. Pass rdd.WithRecorder to capture telemetry.
func RunDistEclat(goCtx context.Context, db *itemset.DB, support float64, cfg cluster.Config, tasks int,
	opts ...rdd.Option) (*apriori.Trace, *rdd.Context, error) {
	ctx, fs, path, err := stageRDD(goCtx, db, cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	trace, err := disteclat.Mine(ctx, fs, path, disteclat.Config{
		MinSupport:    support,
		NumPartitions: tasks,
	})
	if err != nil {
		return nil, nil, err
	}
	return trace, ctx, nil
}

// RunRDDEclat stages db into a fresh DFS and mines it with the
// equivalence-class-partitioned bitset Eclat engine on the given cluster.
// Pass rdd.WithRecorder to capture telemetry.
func RunRDDEclat(goCtx context.Context, db *itemset.DB, support float64, cfg cluster.Config, tasks int,
	mineCfg rddeclat.Config, opts ...rdd.Option) (*apriori.Trace, *rdd.Context, error) {
	ctx, fs, path, err := stageRDD(goCtx, db, cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	mineCfg.MinSupport = support
	if mineCfg.NumPartitions == 0 {
		mineCfg.NumPartitions = tasks
	}
	trace, err := rddeclat.Mine(ctx, fs, path, mineCfg)
	if err != nil {
		return nil, nil, err
	}
	return trace, ctx, nil
}

// RunMRApriori stages db into a fresh DFS and mines it with the MapReduce
// implementation on the given cluster. rec (may be nil) captures telemetry
// from the runner and the DFS; plan (may be nil) injects the chaos fault
// plan into the runner and the DFS.
func RunMRApriori(ctx context.Context, db *itemset.DB, support float64, cfg cluster.Config, tasks int,
	mineCfg mrapriori.Config, rec *obs.Recorder, plan *chaos.Plan) (*apriori.Trace, *mapreduce.Runner, error) {
	runner, fs, path, err := stageMR(db, cfg, rec)
	if err != nil {
		return nil, nil, err
	}
	if plan != nil {
		if err := runner.SetChaos(plan); err != nil {
			return nil, nil, err
		}
	}
	mineCfg.MinSupport = support
	if mineCfg.NumMapTasks == 0 {
		mineCfg.NumMapTasks = tasks
	}
	trace, err := mrapriori.MineContext(ctx, runner, fs, path, "/work", mineCfg)
	if err != nil {
		return nil, nil, err
	}
	return trace, runner, nil
}

// Comparison is one dataset mined by both engines, with verified-identical
// results — the unit of Fig. 3 and Fig. 6.
type Comparison struct {
	Dataset   string
	Support   float64
	DB        itemset.Stats
	YAFIM     *apriori.Trace
	MRApriori *apriori.Trace
}

// Speedup returns MRApriori's total time over YAFIM's.
func (c *Comparison) Speedup() float64 {
	y := c.YAFIM.TotalDuration()
	if y <= 0 {
		return 0
	}
	return float64(c.MRApriori.TotalDuration()) / float64(y)
}

// RunComparison mines one benchmark with both engines and verifies they
// found exactly the same frequent itemsets, returning the paired traces.
func RunComparison(ctx context.Context, b Benchmark, env Env) (*Comparison, error) {
	db, err := b.Gen(env.Scale, env.Seed)
	if err != nil {
		return nil, err
	}
	yTrace, _, err := RunYAFIM(ctx, db, b.Support, env.Spark, env.tasks(env.Spark), yafim.Config{})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: yafim: %w", b.Name, err)
	}
	mTrace, _, err := RunMRApriori(ctx, db, b.Support, env.Hadoop, env.tasks(env.Hadoop), mrapriori.Config{}, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: mrapriori: %w", b.Name, err)
	}
	if !yTrace.Result.Equal(mTrace.Result) {
		return nil, fmt.Errorf("experiments: %s: YAFIM and MRApriori results differ", b.Name)
	}
	return &Comparison{
		Dataset:   b.Name,
		Support:   b.Support,
		DB:        db.ComputeStats(),
		YAFIM:     yTrace,
		MRApriori: mTrace,
	}, nil
}

// Table1Row is one row of the paper's Table I, as our generators realise it.
type Table1Row struct {
	Dataset         string
	NumItems        int
	NumTransactions int
	AvgLength       float64
}

// RunTable1 generates every benchmark dataset and reports its properties.
func RunTable1(env Env) ([]Table1Row, error) {
	var rows []Table1Row
	for _, b := range PaperBenchmarks() {
		db, err := b.Gen(env.Scale, env.Seed)
		if err != nil {
			return nil, err
		}
		st := db.ComputeStats()
		rows = append(rows, Table1Row{
			Dataset:         b.Name,
			NumItems:        st.NumItems,
			NumTransactions: st.NumTransactions,
			AvgLength:       st.AvgLength,
		})
	}
	return rows, nil
}

// Summary aggregates the per-benchmark speedups into the headline claim
// ("about 18x on average").
type Summary struct {
	Comparisons []*Comparison
}

// AverageSpeedup returns the arithmetic mean of per-dataset total-time
// speedups.
func (s *Summary) AverageSpeedup() float64 {
	if len(s.Comparisons) == 0 {
		return 0
	}
	total := 0.0
	for _, c := range s.Comparisons {
		total += c.Speedup()
	}
	return total / float64(len(s.Comparisons))
}

// RunSummary runs the full Fig. 3 comparison suite.
func RunSummary(ctx context.Context, env Env) (*Summary, error) {
	s := &Summary{}
	for _, b := range PaperBenchmarks() {
		if err := exec.ContextErr(ctx); err != nil {
			return nil, fmt.Errorf("experiments: summary: %w", err)
		}
		c, err := RunComparison(ctx, b, env)
		if err != nil {
			return nil, err
		}
		s.Comparisons = append(s.Comparisons, c)
	}
	return s, nil
}

// Sizeup is the Fig. 4 experiment for one dataset: total mining time as the
// dataset is replicated 1..N times with the core count fixed (48 in the
// paper).
type Sizeup struct {
	Dataset      string
	Replications []int
	YAFIM        []time.Duration
	MRApriori    []time.Duration
}

// RunSizeup replicates the benchmark dataset by each factor and mines it
// with both engines on a 48-core slice of the paper clusters.
func RunSizeup(ctx context.Context, b Benchmark, env Env, replications []int) (*Sizeup, error) {
	base, err := b.Gen(env.Scale, env.Seed)
	if err != nil {
		return nil, err
	}
	spark := env.Spark.WithTotalCores(48)
	hadoop := env.Hadoop.WithTotalCores(48)
	out := &Sizeup{Dataset: b.Name, Replications: replications}
	for _, times := range replications {
		if err := exec.ContextErr(ctx); err != nil {
			return nil, fmt.Errorf("experiments: sizeup %s: %w", b.Name, err)
		}
		db := base.Replicate(times)
		yTrace, _, err := RunYAFIM(ctx, db, b.Support, spark, env.tasks(spark), yafim.Config{})
		if err != nil {
			return nil, fmt.Errorf("experiments: sizeup %s x%d: %w", b.Name, times, err)
		}
		mTrace, _, err := RunMRApriori(ctx, db, b.Support, hadoop, env.tasks(hadoop), mrapriori.Config{}, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: sizeup %s x%d: %w", b.Name, times, err)
		}
		if !yTrace.Result.Equal(mTrace.Result) {
			return nil, fmt.Errorf("experiments: sizeup %s x%d: results differ", b.Name, times)
		}
		out.YAFIM = append(out.YAFIM, yTrace.TotalDuration())
		out.MRApriori = append(out.MRApriori, mTrace.TotalDuration())
	}
	return out, nil
}

// Speedup is the Fig. 5 experiment for one dataset: YAFIM total time as the
// node count grows with the dataset fixed.
type Speedup struct {
	Dataset   string
	Nodes     []int
	Cores     []int
	Durations []time.Duration
}

// Relative returns time(nodes[0]) / time(nodes[i]) for each point — the
// conventional speedup curve normalised to the smallest cluster.
func (s *Speedup) Relative() []float64 {
	out := make([]float64, len(s.Durations))
	for i, d := range s.Durations {
		if d > 0 {
			out[i] = float64(s.Durations[0]) / float64(d)
		}
	}
	return out
}

// RunSpeedup mines the benchmark with YAFIM at each node count (the paper
// uses 4, 6, 8, 10, 12 nodes of 8 cores). The dataset is replicated by the
// given factor first so that per-pass compute is large enough for node
// scaling to be visible above fixed scheduling overheads (replicate <= 1
// mines the base dataset).
func RunSpeedup(ctx context.Context, b Benchmark, env Env, nodes []int, replicate int) (*Speedup, error) {
	db, err := b.Gen(env.Scale, env.Seed)
	if err != nil {
		return nil, err
	}
	if replicate > 1 {
		db = db.Replicate(replicate)
	}
	out := &Speedup{Dataset: b.Name, Nodes: nodes}
	for _, n := range nodes {
		if err := exec.ContextErr(ctx); err != nil {
			return nil, fmt.Errorf("experiments: speedup %s: %w", b.Name, err)
		}
		cfg := env.Spark.WithNodes(n)
		trace, _, err := RunYAFIM(ctx, db, b.Support, cfg, env.tasks(cfg), yafim.Config{})
		if err != nil {
			return nil, fmt.Errorf("experiments: speedup %s %dn: %w", b.Name, n, err)
		}
		out.Cores = append(out.Cores, cfg.TotalCores())
		out.Durations = append(out.Durations, trace.TotalDuration())
	}
	return out, nil
}
