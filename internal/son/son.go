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
//     dataset by MRApriori's own counting job (mrapriori.CountSpec), whose
//     reducer keeps those meeting the global minimum support, eliminating
//     false positives.
//
// Both jobs are registered job types submitted through a dist.Executor, so
// SON runs on the virtual-time simulator (dist.Local) and on the real
// multi-process runtime (dist.Master) alike.
//
// Trading k job startups for potentially huge intermediate candidate sets
// is exactly the trade-off §III describes ("may lead memory overflow and
// too much execution time for large data sets").
package son

import (
	"context"
	"encoding/json"
	"fmt"

	"yafim/internal/apriori"
	"yafim/internal/dist"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/mrapriori"
	"yafim/internal/sim"
)

// Config parameterises a SON run.
type Config struct {
	// MinSupport is the relative minimum support threshold in (0,1].
	MinSupport float64
	// NumReducers sets reduce-side parallelism (0 = executor default).
	NumReducers int
	// NumMapTasks is a minimum map-task count hint (0 = executor default).
	NumMapTasks int
	// MaxK bounds the local mining depth (0 = unbounded).
	MaxK int
}

// JobTypeCandidates is the registered job type of SON's first job: local
// mining per split, deduplicated reduce-side.
const JobTypeCandidates = "son-candidates"

// candidateParams is JobTypeCandidates' wire parameter blob.
type candidateParams struct {
	Support float64 `json:"support"`
	MaxK    int     `json:"max_k,omitempty"`
}

func init() {
	dist.RegisterJobType(JobTypeCandidates, dist.JobType{
		NewMapper: func(p []byte) (mapreduce.Mapper, error) {
			var cp candidateParams
			if err := json.Unmarshal(p, &cp); err != nil {
				return nil, fmt.Errorf("son: candidate params: %w", err)
			}
			return &localMiner{support: cp.Support, maxK: cp.MaxK}, nil
		},
		NewReducer: func([]byte) (mapreduce.Reducer, error) { return dedupReducer{}, nil },
	})
}

// Mine runs SON over the transaction file at inputPath, submitting both jobs
// through ex. The returned trace has one pass per job (candidate
// generation, then counting). Both jobs run under ctx, so a cancel or
// deadline stops the run within one task boundary.
func Mine(ctx context.Context, ex dist.Executor, inputPath string, cfg Config) (*apriori.Trace, error) {
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return nil, fmt.Errorf("son: MinSupport %v out of (0,1]", cfg.MinSupport)
	}

	// Job 1: local mining per split; the reducer is a dedup (first value).
	params, err := json.Marshal(candidateParams{Support: cfg.MinSupport, MaxK: cfg.MaxK})
	if err != nil {
		return nil, fmt.Errorf("son: candidate params: %w", err)
	}
	out, err := ex.ExecJob(ctx, &dist.JobSpec{
		Name:        "son-candidates",
		Type:        JobTypeCandidates,
		Params:      params,
		InputPath:   inputPath,
		NumMaps:     cfg.NumMapTasks,
		NumReducers: cfg.NumReducers,
	})
	if err != nil {
		return nil, fmt.Errorf("son: candidate job: %w", err)
	}
	n := out.MapInputRecords
	if n == 0 {
		return nil, fmt.Errorf("son: %s holds no transactions", inputPath)
	}
	minCount := itemset.MinSupportCount(cfg.MinSupport, n)

	candidates := make([]itemset.Itemset, 0, len(out.KVs))
	maxLen := 0
	for _, kv := range out.KVs {
		set, err := mrapriori.ParseSet(kv.Key)
		if err != nil {
			return nil, fmt.Errorf("son: candidate output: %w", err)
		}
		candidates = append(candidates, set)
		maxLen = max(maxLen, set.Len())
	}

	trace := &apriori.Trace{Result: &apriori.Result{MinSupport: minCount}}
	trace.Passes = append(trace.Passes, apriori.PassStat{
		K: 1, Candidates: int(n), Frequent: len(candidates), Duration: out.Duration,
	})
	if len(candidates) == 0 {
		return trace, nil
	}

	// Job 2: exact global counting of every candidate, all lengths at once.
	out, err = ex.ExecJob(ctx, mrapriori.CountSpec("son-count", inputPath,
		dist.ScratchDir+"/candidate-set", [][]itemset.Itemset{candidates}, minCount,
		cfg.NumReducers, cfg.NumMapTasks))
	if err != nil {
		return nil, fmt.Errorf("son: count job: %w", err)
	}
	levels, err := mrapriori.SplitLevels(out.KVs, 1, maxLen)
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
		K: 2, Candidates: len(candidates), Frequent: frequent, Duration: out.Duration,
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
