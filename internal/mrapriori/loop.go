package mrapriori

import (
	"context"
	"fmt"
	"time"

	"yafim/internal/apriori"
	"yafim/internal/exec"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/obs"
)

// passRunner executes the mining loop's two job shapes somewhere: on the
// in-memory virtual-time engine (simPasses) or on a dist.Executor — the
// real multi-process runtime or its in-memory oracle (distPasses). The
// driver loop above it is shared verbatim, so the candidate generation,
// threshold arithmetic and pruning decisions of a distributed run are the
// same code the simulator runs — parity by construction, with only task
// execution and shuffling left to differ.
type passRunner interface {
	// runPass1 counts single items over the input.
	runPass1(ctx context.Context, reducers, mapTasks int) (*passOutput, error)
	// runCountPass counts the candidate batch starting at length k,
	// pruning below minCount reduce-side.
	runCountPass(ctx context.Context, k int, batch [][]itemset.Itemset,
		minCount, reducers, mapTasks int) (*passOutput, error)
	// defaultReducers is the reduce parallelism when the config leaves it 0.
	defaultReducers() int
}

// passOutput is one counting job's result in engine-neutral form.
type passOutput struct {
	kvs          []mapreduce.KV
	inputRecords int64
	duration     time.Duration
}

// mineLoop is the k-phase MRApriori driver shared by every execution mode.
// rec may be nil (the real runtime measures rather than meters); inputPath
// only labels errors.
func mineLoop(ctx context.Context, pr passRunner, rec *obs.Recorder, cfg Config,
	inputPath string) (*apriori.Trace, error) {
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return nil, fmt.Errorf("mrapriori: MinSupport %v out of (0,1]", cfg.MinSupport)
	}
	reducers := cfg.NumReducers
	if reducers <= 0 {
		reducers = pr.defaultReducers()
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
	po, err := pr.runPass1(ctx, reducers, cfg.NumMapTasks)
	if err != nil {
		return nil, fmt.Errorf("mrapriori: pass 1: %w", err)
	}
	n := po.inputRecords
	if n == 0 {
		return nil, fmt.Errorf("mrapriori: %s holds no transactions", inputPath)
	}
	minCount := itemset.MinSupportCount(cfg.MinSupport, n)
	rec.ObservePass("mapreduce", 1, int(n))

	var l1 []apriori.SetCount
	for _, kv := range po.kvs {
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
		K: 1, Candidates: int(n), Frequent: len(l1), Duration: po.duration,
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
		po, err := pr.runCountPass(ctx, k, batch, minCount, reducers, cfg.NumMapTasks)
		if err != nil {
			return nil, fmt.Errorf("mrapriori: pass %d: %w", k, err)
		}
		levels, err := SplitLevels(po.kvs, k, len(batch))
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
				stat.Duration = po.duration
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

// SplitLevels parses CountJob's output and splits the surviving itemsets
// back into the batchLen candidate levels starting at length k: a batch job
// counts several lengths at once under FPC/DPC, and SON counts every length
// at once. The levels come back unsorted; apriori.NewLevel sorts them.
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
