// Package son implements the SON algorithm (Savasere, Omiecinski &
// Navathe) on the MapReduce engine — the "one-phase" family the paper's
// related-work section (§III) contrasts with k-phase algorithms like
// MRApriori. SON needs exactly two MapReduce jobs regardless of the longest
// frequent itemset:
//
//  1. Candidate job: each map task mines its input split locally with
//     sequential Apriori at the same relative support and emits every
//     locally frequent itemset. Any globally frequent itemset is locally
//     frequent in at least one split (pigeonhole on supports), so the union
//     of local results is a complete candidate set.
//  2. Count job: candidate supports are counted exactly over the full
//     dataset by MRApriori's own counting job (mrapriori.CountJob), whose
//     reducer keeps those meeting the global minimum support, eliminating
//     false positives.
//
// Trading k job startups for potentially huge intermediate candidate sets
// is exactly the trade-off §III describes ("may lead memory overflow and
// too much execution time for large data sets").
package son

import (
	"context"
	"fmt"

	"yafim/internal/apriori"
	"yafim/internal/dfs"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/mrapriori"
	"yafim/internal/sim"
)

// Config parameterises a SON run.
type Config struct {
	// MinSupport is the relative minimum support threshold in (0,1].
	MinSupport float64
	// NumReducers sets reduce-side parallelism (0 = cluster core count).
	NumReducers int
	// NumMapTasks is a minimum map-task count hint (0 = one per block).
	NumMapTasks int
	// MaxK bounds the local mining depth (0 = unbounded).
	MaxK int
}

// Mine runs SON over the transaction file at inputPath, staging files under
// workDir. The returned trace has one pass per job (candidate generation,
// then counting).
func Mine(runner *mapreduce.Runner, fs *dfs.FileSystem, inputPath, workDir string,
	cfg Config) (*apriori.Trace, error) {
	return MineContext(context.Background(), runner, fs, inputPath, workDir, cfg)
}

// MineContext is Mine with cooperative cancellation: both MapReduce jobs run
// under ctx, so a cancel or deadline stops the run within one task boundary.
func MineContext(ctx context.Context, runner *mapreduce.Runner, fs *dfs.FileSystem,
	inputPath, workDir string, cfg Config) (*apriori.Trace, error) {
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return nil, fmt.Errorf("son: MinSupport %v out of (0,1]", cfg.MinSupport)
	}
	reducers := cfg.NumReducers
	if reducers <= 0 {
		reducers = runner.Config().TotalCores()
	}

	// Job 1: local mining per split; the reducer is a dedup (first value).
	candDir := workDir + "/candidates"
	mapreduce.CleanOutput(fs, candDir)
	rep1, counters, err := runner.RunContext(ctx, mapreduce.Job{
		Name:      "son-candidates",
		Input:     []string{inputPath},
		OutputDir: candDir,
		NewMapper: func() mapreduce.Mapper {
			return &localMiner{support: cfg.MinSupport, maxK: cfg.MaxK}
		},
		NewReducer:  func() mapreduce.Reducer { return dedupReducer{} },
		NumReducers: reducers,
		MapTasks:    cfg.NumMapTasks,
	})
	if err != nil {
		return nil, fmt.Errorf("son: candidate job: %w", err)
	}
	n := counters.MapInputRecords
	if n == 0 {
		return nil, fmt.Errorf("son: %s holds no transactions", inputPath)
	}
	minCount := itemset.MinSupportCount(cfg.MinSupport, n)

	kvs, err := mapreduce.ReadOutput(fs, candDir, nil)
	if err != nil {
		return nil, fmt.Errorf("son: candidate output: %w", err)
	}
	candidates := make([]itemset.Itemset, 0, len(kvs))
	maxLen := 0
	for _, kv := range kvs {
		set, err := mrapriori.ParseSet(kv.Key)
		if err != nil {
			return nil, fmt.Errorf("son: candidate output: %w", err)
		}
		candidates = append(candidates, set)
		maxLen = max(maxLen, set.Len())
	}

	trace := &apriori.Trace{Result: &apriori.Result{MinSupport: minCount}}
	trace.Passes = append(trace.Passes, apriori.PassStat{
		K: 1, Candidates: int(n), Frequent: len(candidates), Duration: rep1.Duration(),
	})
	if len(candidates) == 0 {
		return trace, nil
	}

	// Job 2: exact global counting of every candidate, all lengths at once.
	cachePath := workDir + "/candidate-set"
	if err := fs.WriteFile(cachePath, mrapriori.EncodeCandidates([][]itemset.Itemset{candidates}), nil); err != nil {
		return nil, fmt.Errorf("son: staging candidates: %w", err)
	}
	outDir := workDir + "/frequent"
	mapreduce.CleanOutput(fs, outDir)
	rep2, _, err := runner.RunContext(ctx, mrapriori.CountJob("son-count",
		inputPath, outDir, cachePath, minCount, reducers, cfg.NumMapTasks))
	if err != nil {
		return nil, fmt.Errorf("son: count job: %w", err)
	}

	kvs, err = mapreduce.ReadOutput(fs, outDir, nil)
	if err != nil {
		return nil, fmt.Errorf("son: count output: %w", err)
	}
	levels, err := mrapriori.SplitLevels(kvs, 1, maxLen)
	if err != nil {
		return nil, fmt.Errorf("son: count output: %w", err)
	}
	frequent := 0
	for i, sets := range levels {
		if len(sets) == 0 {
			break
		}
		frequent += len(sets)
		trace.Result.Levels = append(trace.Result.Levels, apriori.NewLevel(i+1, sets))
	}
	trace.Passes = append(trace.Passes, apriori.PassStat{
		K: 2, Candidates: len(candidates), Frequent: frequent, Duration: rep2.Duration(),
	})
	return trace, nil
}

// localMiner buffers its split's transactions and mines them in Cleanup,
// emitting each locally frequent itemset once.
type localMiner struct {
	support float64
	maxK    int
	rows    [][]itemset.Item
}

func (m *localMiner) Setup(mapreduce.CacheFiles, *sim.Ledger) error { return nil }

func (m *localMiner) Map(_ int64, line string, _ mapreduce.Emit, led *sim.Ledger) error {
	set, err := itemset.ParseLine(line)
	if err != nil {
		return fmt.Errorf("son: transaction: %w", err)
	}
	m.rows = append(m.rows, set)
	led.AddCPU(float64(len(line)))
	return nil
}

func (m *localMiner) Cleanup(emit mapreduce.Emit, led *sim.Ledger) error {
	if len(m.rows) == 0 {
		return nil
	}
	db := itemset.NewDB("split", m.rows)
	res, err := apriori.Mine(db, m.support, apriori.Options{MaxK: m.maxK})
	if err != nil {
		return fmt.Errorf("son: local mining: %w", err)
	}
	// Local mining cost: approximate with transactions scanned per level.
	led.AddCPU(float64(db.Len() * max(res.MaxK(), 1) * 4))
	for _, level := range res.Levels {
		for _, sc := range level.Sets {
			emit(mrapriori.SetKey(sc.Set), "1")
		}
	}
	return nil
}

// dedupReducer keeps one record per candidate key.
type dedupReducer struct{}

func (dedupReducer) Setup(mapreduce.CacheFiles, *sim.Ledger) error { return nil }

func (dedupReducer) Reduce(key string, _ []string, emit mapreduce.Emit, _ *sim.Ledger) error {
	emit(key, "1")
	return nil
}
