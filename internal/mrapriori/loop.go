package mrapriori

import (
	"context"
	"fmt"
	"strconv"

	"yafim/internal/apriori"
	"yafim/internal/dist"
	"yafim/internal/exec"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/obs"
)

// Mine runs the k-phase MapReduce Apriori over the transaction file at
// inputPath, submitting every job through ex: dist.Local runs them on the
// virtual-time simulator, a dist.Master across real worker processes. The
// driver loop is the same code either way, so the candidate generation,
// threshold arithmetic and pruning decisions of a distributed run are the
// ones the simulator makes — parity by construction, with only task
// execution and shuffling left to differ.
//
// rec receives per-pass telemetry and may be nil (the real runtime measures
// rather than meters). The context is checked between passes and inside
// every job, so a cancel or deadline stops the k-phase iteration within one
// task boundary with an error matching exec.ErrCanceled or
// exec.ErrDeadlineExceeded.
func Mine(ctx context.Context, ex dist.Executor, inputPath string, cfg Config,
	rec *obs.Recorder) (*apriori.Trace, error) {
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return nil, fmt.Errorf("mrapriori: MinSupport %v out of (0,1]", cfg.MinSupport)
	}

	// Phase 1: one job counting single items. The reducer cannot know the
	// relative threshold's absolute value before the input size is known, so
	// it emits every count and the driver prunes using the job's input
	// record counter, exactly as one-pass Hadoop implementations do.
	rec.SetPass(1)
	passMark := rec.Counters()
	out, err := ex.ExecJob(ctx, &dist.JobSpec{
		Name:        "apriori-pass1",
		Type:        JobTypeItems,
		InputPath:   inputPath,
		NumMaps:     cfg.NumMapTasks,
		NumReducers: cfg.NumReducers,
	})
	if err != nil {
		return nil, fmt.Errorf("mrapriori: pass 1: %w", err)
	}
	n := out.MapInputRecords
	if n == 0 {
		return nil, fmt.Errorf("mrapriori: %s holds no transactions", inputPath)
	}
	minCount := itemset.MinSupportCount(cfg.MinSupport, n)
	rec.ObservePass("mapreduce", 1, int(n))

	l1, err := parseLevel(out.KVs, 1, minCount)
	if err != nil {
		return nil, fmt.Errorf("mrapriori: pass 1 output: %w", err)
	}

	res := &apriori.Result{MinSupport: minCount}
	trace := &apriori.Trace{Result: res}
	trace.Passes = append(trace.Passes, apriori.PassStat{
		K: 1, Candidates: int(n), Frequent: len(l1), Duration: out.Duration,
		Counters: rec.Counters().Sub(passMark),
	})
	if len(l1) == 0 {
		return trace, nil
	}
	res.Levels = append(res.Levels, apriori.NewLevel(1, l1))

	// Phases 2..k: one job per candidate length.
	prev := apriori.SetsOf(l1)
	for k := 2; cfg.MaxK == 0 || k <= cfg.MaxK; k++ {
		if err := exec.ContextErr(ctx); err != nil {
			return nil, fmt.Errorf("mrapriori: pass %d: %w", k, err)
		}
		cands, err := apriori.Gen(prev)
		if err != nil {
			return nil, fmt.Errorf("mrapriori: pass %d: %w", k, err)
		}
		if len(cands) == 0 {
			break
		}
		rec.SetPass(k)
		passMark = rec.Counters()
		rec.ObservePass("mapreduce", k, len(cands))
		out, err := ex.ExecJob(ctx, CountSpec(fmt.Sprintf("apriori-pass%d", k), inputPath,
			fmt.Sprintf("%s/C%d", dist.ScratchDir, k), cands, minCount,
			cfg.NumReducers, cfg.NumMapTasks))
		if err != nil {
			return nil, fmt.Errorf("mrapriori: pass %d: %w", k, err)
		}
		lk, err := parseLevel(out.KVs, k, minCount)
		if err != nil {
			return nil, fmt.Errorf("mrapriori: pass %d: %w", k, err)
		}
		trace.Passes = append(trace.Passes, apriori.PassStat{
			K: k, Candidates: len(cands), Frequent: len(lk), Duration: out.Duration,
			Counters: rec.Counters().Sub(passMark),
		})
		if len(lk) == 0 {
			break
		}
		res.Levels = append(res.Levels, apriori.NewLevel(k, lk))
		prev = apriori.SetsOf(lk)
	}
	return trace, nil
}

// parseLevel parses a counting job's output into its k-itemsets counted at
// least minCount times. The level comes back unsorted; apriori.NewLevel
// sorts it.
func parseLevel(kvs []mapreduce.KV, k, minCount int) ([]apriori.SetCount, error) {
	var level []apriori.SetCount
	for _, kv := range kvs {
		count, err := strconv.Atoi(kv.Value)
		if err != nil {
			return nil, fmt.Errorf("bad count %q for key %q", kv.Value, kv.Key)
		}
		set, err := ParseSet(kv.Key)
		if err != nil {
			return nil, err
		}
		if set.Len() != k {
			return nil, fmt.Errorf("unexpected %d-itemset in output counting %d-itemsets", set.Len(), k)
		}
		if count >= minCount {
			level = append(level, apriori.SetCount{Set: set, Count: count})
		}
	}
	return level, nil
}
