package dist

import (
	"context"
	"fmt"
	"sort"

	"yafim/internal/dfs"
	"yafim/internal/mapreduce"
)

// Local is the deterministic in-memory Executor: it runs each job on the
// caller's virtual-time MapReduce runner over the caller's simulated DFS.
// It builds each job once, through the same job-type registry as the
// worker runtime, so the exact closures a real worker process would run are
// what the simulator runs — any divergence between a distributed run and a
// Local run is a runtime bug, not an algorithm difference.
//
// A JobSpec's InputPath names a DFS file, and each cache blob is staged into
// the DFS at its own name (in name order) before the job runs, so cache
// names must be DFS paths. Each job writes its part files under
// ScratchDir/<job name>; a zero task count takes the runner's defaults —
// one map task per input block and one reducer per cluster core.
type Local struct {
	runner *mapreduce.Runner
	fs     *dfs.FileSystem
}

// ScratchDir is the DFS directory Local commits job output under. Mining
// code names its cache blobs under it too, so one mine's scratch files share
// a directory, as they share a Hadoop job's working directory.
const ScratchDir = "/work"

// NewLocal returns an Executor running jobs on runner over fs, the file
// system runner was created with.
func NewLocal(runner *mapreduce.Runner, fs *dfs.FileSystem) *Local {
	return &Local{runner: runner, fs: fs}
}

// ExecJob builds the job from its parameters and cache blobs, then runs it
// on the sim engine.
func (l *Local) ExecJob(ctx context.Context, job *JobSpec) (*JobOutput, error) {
	tasks, err := buildJob(job.Type, job.Params, job.Cache)
	if err != nil {
		return nil, fmt.Errorf("dist: %s: %w", job.Name, err)
	}
	cacheNames := make([]string, 0, len(job.Cache))
	for name := range job.Cache {
		cacheNames = append(cacheNames, name)
	}
	sort.Strings(cacheNames)
	for _, name := range cacheNames {
		if err := l.fs.WriteFile(name, job.Cache[name], nil); err != nil {
			return nil, fmt.Errorf("dist: %s: cache %s: %w", job.Name, name, err)
		}
	}
	reducers := job.NumReducers
	if reducers <= 0 {
		reducers = l.runner.Config().TotalCores()
	}
	mj := mapreduce.Job{
		Name:        job.Name,
		Input:       []string{job.InputPath},
		OutputDir:   ScratchDir + "/" + job.Name,
		Tasks:       tasks,
		NumReducers: reducers,
		MapTasks:    job.NumMaps,
		CacheFiles:  cacheNames,
	}
	mapreduce.CleanOutput(l.fs, mj.OutputDir)
	report, counters, err := l.runner.RunContext(ctx, mj)
	if err != nil {
		return nil, err
	}
	kvs, err := mapreduce.ReadOutput(l.fs, mj.OutputDir, nil)
	if err != nil {
		return nil, err
	}
	return &JobOutput{
		KVs:             kvs,
		MapInputRecords: counters.MapInputRecords,
		Duration:        report.Duration(),
	}, nil
}
