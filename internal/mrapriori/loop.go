package mrapriori

import (
	"context"
	"fmt"

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
	fpcPasses := cfg.FPCPasses
	if fpcPasses <= 0 {
		fpcPasses = 3
	}
	budget := cfg.DPCBudget
	if budget <= 0 {
		budget = 50000
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

	var l1 []apriori.SetCount
	for _, kv := range out.KVs {
		count, set, err := parseCountedSet(kv)
		if err != nil {
			return nil, fmt.Errorf("mrapriori: pass 1 output: %w", err)
		}
		if count >= minCount {
			l1 = append(l1, apriori.SetCount{Set: set, Count: count})
		}
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

	// Phases 2..k: one job per candidate batch.
	prev := apriori.SetsOf(l1)
	k := 2
	for cfg.MaxK == 0 || k <= cfg.MaxK {
		if err := exec.ContextErr(ctx); err != nil {
			return nil, fmt.Errorf("mrapriori: pass %d: %w", k, err)
		}
		batch, err := generateBatch(prev, cfg.Variant, fpcPasses, budget, cfg.MaxK, k)
		if err != nil {
			return nil, fmt.Errorf("mrapriori: pass %d: %w", k, err)
		}
		if len(batch) == 0 {
			break
		}
		rec.SetPass(k)
		passMark = rec.Counters()
		for i, cands := range batch {
			rec.ObservePass("mapreduce", k+i, len(cands))
		}
		out, err := ex.ExecJob(ctx, CountSpec(fmt.Sprintf("apriori-pass%d", k), inputPath,
			fmt.Sprintf("%s/C%d", dist.ScratchDir, k), batch, minCount,
			cfg.NumReducers, cfg.NumMapTasks))
		if err != nil {
			return nil, fmt.Errorf("mrapriori: pass %d: %w", k, err)
		}
		levels, err := SplitLevels(out.KVs, k, len(batch))
		if err != nil {
			return nil, fmt.Errorf("mrapriori: pass %d: %w", k, err)
		}

		// Attribute the job's full duration (and counter activity) to the
		// first level of the batch; levels sharing the job report zero
		// incremental time.
		stop := false
		for i, cands := range batch {
			lk := levels[i]
			stat := apriori.PassStat{K: k + i, Candidates: len(cands), Frequent: len(lk)}
			if i == 0 {
				stat.Duration = out.Duration
				stat.Counters = rec.Counters().Sub(passMark)
			}
			trace.Passes = append(trace.Passes, stat)
			if len(lk) == 0 {
				stop = true
				break
			}
			res.Levels = append(res.Levels, apriori.NewLevel(k+i, lk))
			prev = apriori.SetsOf(lk)
		}
		if stop {
			break
		}
		k += len(batch)
	}
	return trace, nil
}

// SplitLevels parses the counting job's output and splits the surviving
// itemsets back into the batchLen candidate levels starting at length k: a
// batch job counts several lengths at once under FPC/DPC, and SON counts
// every length at once. The levels come back unsorted; apriori.NewLevel
// sorts them.
func SplitLevels(kvs []mapreduce.KV, k, batchLen int) ([][]apriori.SetCount, error) {
	levels := make([][]apriori.SetCount, batchLen)
	for _, kv := range kvs {
		count, set, err := parseCountedSet(kv)
		if err != nil {
			return nil, err
		}
		idx := set.Len() - k
		if idx < 0 || idx >= batchLen {
			return nil, fmt.Errorf("unexpected %d-itemset in output counting lengths %d..%d",
				set.Len(), k, k+batchLen-1)
		}
		// A speculative level may be frequent only through itemsets whose
		// true k-subsets turned out infrequent; exact counting makes them
		// valid frequent itemsets regardless, so no re-pruning is needed.
		levels[idx] = append(levels[idx], apriori.SetCount{Set: set, Count: count})
	}
	return levels, nil
}
