package mrapriori

import (
	"context"
	"encoding/json"
	"fmt"

	"yafim/internal/apriori"
	"yafim/internal/dfs"
	"yafim/internal/dist"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
)

// simPasses runs the mining jobs on the in-memory virtual-time MapReduce
// engine — the original execution mode, byte-for-byte.
type simPasses struct {
	runner    *mapreduce.Runner
	fs        *dfs.FileSystem
	inputPath string
	workDir   string
}

func (s *simPasses) defaultReducers() int { return s.runner.Config().TotalCores() }

func (s *simPasses) runPass1(ctx context.Context, reducers, mapTasks int) (*passOutput, error) {
	out1 := s.workDir + "/L1"
	mapreduce.CleanOutput(s.fs, out1)
	rep, counters, err := s.runner.RunContext(ctx, mapreduce.Job{
		Name:        "apriori-pass1",
		Input:       []string{s.inputPath},
		OutputDir:   out1,
		NewMapper:   func() mapreduce.Mapper { return &itemMapper{} },
		NewCombiner: func() mapreduce.Reducer { return sumReducer{} },
		NewReducer:  func() mapreduce.Reducer { return sumReducer{} },
		NumReducers: reducers,
		MapTasks:    mapTasks,
	})
	if err != nil {
		return nil, err
	}
	kvs, err := mapreduce.ReadOutput(s.fs, out1, nil)
	if err != nil {
		return nil, fmt.Errorf("output: %w", err)
	}
	return &passOutput{kvs: kvs, inputRecords: counters.MapInputRecords, duration: rep.Duration()}, nil
}

func (s *simPasses) runCountPass(ctx context.Context, k int, batch [][]itemset.Itemset,
	minCount, reducers, mapTasks int) (*passOutput, error) {
	cachePath := fmt.Sprintf("%s/C%d", s.workDir, k)
	if err := s.fs.WriteFile(cachePath, EncodeCandidates(batch), nil); err != nil {
		return nil, err
	}
	outDir := fmt.Sprintf("%s/L%d", s.workDir, k)
	mapreduce.CleanOutput(s.fs, outDir)
	rep, _, err := s.runner.RunContext(ctx, CountJob(fmt.Sprintf("apriori-pass%d", k),
		s.inputPath, outDir, cachePath, minCount, reducers, mapTasks))
	if err != nil {
		return nil, err
	}
	kvs, err := mapreduce.ReadOutput(s.fs, outDir, nil)
	if err != nil {
		return nil, err
	}
	return &passOutput{kvs: kvs, duration: rep.Duration()}, nil
}

// Registered job-type names for the dist runtime. Both the driver and the
// worker processes link this package, so the same closures resolve on both
// sides of the wire.
const (
	// JobTypeItems is the pass-1 single-item counting job.
	JobTypeItems = "apriori-items"
	// JobTypeCount is the candidate-batch counting job of passes k >= 2.
	JobTypeCount = "apriori-count"
)

// countParams is JobTypeCount's wire parameter blob.
type countParams struct {
	// CachePath is the distributed-cache name holding the candidate batch.
	CachePath string `json:"cache_path"`
	// MinCount is the absolute support threshold for reduce-side pruning.
	MinCount int `json:"min_count"`
}

func decodeCountParams(p []byte) (countParams, error) {
	var cp countParams
	if err := json.Unmarshal(p, &cp); err != nil {
		return cp, fmt.Errorf("mrapriori: count params: %w", err)
	}
	if cp.CachePath == "" {
		return cp, fmt.Errorf("mrapriori: count params: empty cache path")
	}
	return cp, nil
}

func init() {
	dist.RegisterJobType(JobTypeItems, dist.JobType{
		NewMapper:   func([]byte) (mapreduce.Mapper, error) { return &itemMapper{}, nil },
		NewCombiner: func([]byte) (mapreduce.Reducer, error) { return sumReducer{}, nil },
		NewReducer:  func([]byte) (mapreduce.Reducer, error) { return sumReducer{}, nil },
	})
	dist.RegisterJobType(JobTypeCount, dist.JobType{
		NewMapper: func(p []byte) (mapreduce.Mapper, error) {
			cp, err := decodeCountParams(p)
			if err != nil {
				return nil, err
			}
			return &countMapper{cachePath: cp.CachePath}, nil
		},
		NewCombiner: func([]byte) (mapreduce.Reducer, error) { return sumReducer{}, nil },
		NewReducer: func(p []byte) (mapreduce.Reducer, error) {
			cp, err := decodeCountParams(p)
			if err != nil {
				return nil, err
			}
			return sumReducer{minCount: cp.MinCount}, nil
		},
	})
}

// distPasses runs the mining jobs through a dist.Executor: the real
// multi-process runtime (dist.Master) or its in-memory oracle (dist.Local).
type distPasses struct {
	ex        dist.Executor
	inputPath string
}

// distDefaultReducers stands in for cluster core count when mining through
// an Executor with no reducer count configured, and distDefaultMapTasks for
// the sim's one-task-per-block default, which a real file has no analogue
// of. Without it a zero map-task hint would collapse every job to a single
// split, serialising the map stage no matter how many workers registered.
const (
	distDefaultReducers = 4
	distDefaultMapTasks = 4
)

func (d *distPasses) defaultReducers() int { return distDefaultReducers }

func (d *distPasses) runPass1(ctx context.Context, reducers, mapTasks int) (*passOutput, error) {
	if mapTasks <= 0 {
		mapTasks = distDefaultMapTasks
	}
	out, err := d.ex.ExecJob(ctx, &dist.JobSpec{
		Name:        "apriori-pass1",
		Type:        JobTypeItems,
		InputPath:   d.inputPath,
		NumMaps:     mapTasks,
		NumReducers: reducers,
	})
	if err != nil {
		return nil, err
	}
	return &passOutput{kvs: out.KVs, inputRecords: out.MapInputRecords, duration: out.Duration}, nil
}

func (d *distPasses) runCountPass(ctx context.Context, k int, batch [][]itemset.Itemset,
	minCount, reducers, mapTasks int) (*passOutput, error) {
	if mapTasks <= 0 {
		mapTasks = distDefaultMapTasks
	}
	cachePath := fmt.Sprintf("/cache/C%d", k)
	params, err := json.Marshal(countParams{CachePath: cachePath, MinCount: minCount})
	if err != nil {
		return nil, err
	}
	out, err := d.ex.ExecJob(ctx, &dist.JobSpec{
		Name:        fmt.Sprintf("apriori-pass%d", k),
		Type:        JobTypeCount,
		Params:      params,
		InputPath:   d.inputPath,
		NumMaps:     mapTasks,
		NumReducers: reducers,
		Cache:       map[string][]byte{cachePath: EncodeCandidates(batch)},
	})
	if err != nil {
		return nil, err
	}
	return &passOutput{kvs: out.KVs, duration: out.Duration}, nil
}

// MineDistributed runs the k-phase MRApriori through a dist.Executor over a
// real input file. With a dist.Master executor the mining runs across real
// worker processes; with dist.Local it runs on the in-memory oracle — the
// parity tests hold the two to byte-identical frequent itemsets.
func MineDistributed(ctx context.Context, ex dist.Executor, inputPath string,
	cfg Config) (*apriori.Trace, error) {
	return mineLoop(ctx, &distPasses{ex: ex, inputPath: inputPath}, nil, cfg, inputPath)
}
