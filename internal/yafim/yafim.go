// Package yafim implements YAFIM (Yet Another Frequent Itemset Mining),
// the paper's parallel Apriori on the Spark-substitute RDD engine.
//
// The algorithm follows §IV exactly:
//
//   - Phase I loads the transaction dataset from the DFS into an RDD, caches
//     it in cluster memory, and computes the frequent 1-itemsets with a
//     flatMap → map → reduceByKey pipeline (Fig. 1, Algorithm 2).
//   - Phase II iterates: candidate (k+1)-itemsets are generated from the
//     frequent k-itemsets (ap_gen), stored in a hash tree, broadcast to all
//     workers, matched against the cached transactions RDD with flatMap, and
//     counted with reduceByKey (Fig. 2, Algorithm 3).
//
// The transactions RDD is read from the DFS once and reused in memory for
// every pass — the property that gives YAFIM its advantage over the per-job
// re-scanning MapReduce implementation.
package yafim

import (
	"fmt"
	"sync"

	"yafim/internal/apriori"
	"yafim/internal/dfs"
	"yafim/internal/hashtree"
	"yafim/internal/itemset"
	"yafim/internal/rdd"
	"yafim/internal/shuffle"
	"yafim/internal/sim"
)

// Config parameterises a mining run.
type Config struct {
	// MinSupport is the relative minimum support threshold in (0,1].
	MinSupport float64
	// NumPartitions sets reduce-side parallelism (0 = cluster core count).
	NumPartitions int
	// MaxK stops after frequent itemsets of this size (0 = unbounded).
	MaxK int
	// DisableCache skips caching the transactions RDD, forcing every pass to
	// re-read the input from the DFS (the §IV-B ablation).
	DisableCache bool
	// BruteForceMatching replaces the Phase II hash tree with a linear scan
	// of all candidates per transaction (the §IV-A ablation).
	BruteForceMatching bool
}

// Mine runs YAFIM over the transaction file at path in the DFS.
func Mine(ctx *rdd.Context, fs *dfs.FileSystem, path string, cfg Config) (*apriori.Trace, error) {
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return nil, fmt.Errorf("yafim: MinSupport %v out of (0,1]", cfg.MinSupport)
	}
	parts := cfg.NumPartitions
	if parts <= 0 {
		parts = ctx.Config().TotalCores()
	}

	// Phase I — load transactions into a cached RDD.
	trans, err := Transactions(ctx, fs, path, parts)
	if err != nil {
		return nil, fmt.Errorf("yafim: %w", err)
	}
	if !cfg.DisableCache {
		trans.Cache()
	}

	rec := ctx.Recorder()
	rec.SetPass(1)
	passStart := ctx.NumJobs()
	passMark := rec.Counters()
	n, err := rdd.Count(trans)
	if err != nil {
		return nil, fmt.Errorf("yafim: counting transactions: %w", err)
	}
	if n == 0 {
		return nil, fmt.Errorf("yafim: %s holds no transactions", path)
	}
	minCount := itemset.MinSupportCount(cfg.MinSupport, n)
	rec.ObservePass("rdd", 1, int(n))
	res := &apriori.Result{MinSupport: minCount}
	out := &apriori.Trace{Result: res}

	l1, err := FrequentItems(trans, minCount, parts)
	if err != nil {
		return nil, fmt.Errorf("yafim: phase I: %w", err)
	}
	// Pass boundary: the Phase I shuffle output (itemCounts) has been
	// reduced and collected; release its resident map-side buckets so pass 2
	// starts with zero shuffle bytes held. The per-pass RDDs are never
	// reused, so this adds no recomputation and no virtual time. Freeing
	// before the PassStat snapshot attributes the reclamation to this pass.
	ctx.FreeShuffles()
	out.Passes = append(out.Passes, apriori.PassStat{
		K: 1, Candidates: int(n), Frequent: len(l1), Duration: ctx.DurationSince(passStart),
		Counters: rec.Counters().Sub(passMark),
	})
	if len(l1) == 0 {
		return out, nil
	}
	res.Levels = append(res.Levels, apriori.NewLevel(1, l1))

	// Phase II — iterate L_k -> C_{k+1} -> L_{k+1}.
	prev := apriori.SetsOf(l1)
	for k := 2; cfg.MaxK == 0 || k <= cfg.MaxK; k++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("yafim: pass %d: %w", k, err)
		}
		rec.SetPass(k)
		passStart = ctx.NumJobs()
		passMark = rec.Counters()
		cands, err := apriori.Gen(prev)
		if err != nil {
			return nil, fmt.Errorf("yafim: pass %d: %w", k, err)
		}
		if len(cands) == 0 {
			break
		}
		rec.ObservePass("rdd", k, len(cands))
		lk, err := countPass(ctx, trans, cands, minCount, parts, k, cfg.BruteForceMatching)
		if err != nil {
			return nil, fmt.Errorf("yafim: pass %d: %w", k, err)
		}
		// Pass boundary: free pass k's shuffle output before generating
		// C_{k+1}, the iteration-scoped unpersist discipline.
		ctx.FreeShuffles()
		out.Passes = append(out.Passes, apriori.PassStat{
			K: k, Candidates: len(cands), Frequent: len(lk), Duration: ctx.DurationSince(passStart),
			Counters: rec.Counters().Sub(passMark),
		})
		if len(lk) == 0 {
			break
		}
		res.Levels = append(res.Levels, apriori.NewLevel(k, lk))
		prev = apriori.SetsOf(lk)
	}
	return out, nil
}

// Transactions is Phase I's input RDD, uncached: the .dat file at path read
// as text splits (textFile, one op per line) and parsed by
// itemset.ParseLines (transactions, one op per byte of text). YAFIM and
// RDD-Eclat both mine it.
func Transactions(ctx *rdd.Context, fs *dfs.FileSystem, path string, parts int) (*rdd.RDD[itemset.Itemset], error) {
	lines, err := rdd.TextFile(ctx, fs, path, parts)
	if err != nil {
		return nil, err
	}
	return rdd.MapPartitions(lines, "transactions",
		func(_ int, rows []string, led *sim.Ledger) ([]itemset.Itemset, error) {
			out, err := itemset.ParseLines(rows)
			if err != nil {
				return nil, err
			}
			parsedBytes := 0
			for _, row := range rows {
				parsedBytes += len(row)
			}
			// Text parsing costs one op per byte; caching the RDD is what
			// saves re-paying it on every pass.
			led.AddCPU(float64(parsedBytes))
			return out, nil
		}), nil
}

// FrequentItems is Phase I's counting (Fig. 1, Algorithm 2): flatMap the
// transactions to their items, map each to <item, 1>, reduceByKey over
// parts partitions and keep the items found in at least minCount
// transactions, as frequent 1-itemsets with their counts.
func FrequentItems(trans *rdd.RDD[itemset.Itemset], minCount, parts int) ([]apriori.SetCount, error) {
	items := rdd.FlatMap(trans, "items", func(t itemset.Itemset) []itemset.Item { return t })
	pairs := rdd.Map(items, "itemPairs", func(it itemset.Item) shuffle.Pair[int32, int] {
		return shuffle.Pair[int32, int]{Key: int32(it), Value: 1}
	})
	counts := rdd.ReduceByKey(pairs, "itemCounts", func(a, b int) int { return a + b }, parts)
	frequent := rdd.Filter(counts, "frequentItems", func(kv shuffle.Pair[int32, int]) bool {
		return kv.Value >= minCount
	})
	l1Pairs, err := rdd.Collect(frequent)
	if err != nil {
		return nil, err
	}
	l1 := make([]apriori.SetCount, len(l1Pairs))
	for i, kv := range l1Pairs {
		l1[i] = apriori.SetCount{Set: itemset.New(itemset.Item(kv.Key)), Count: kv.Value}
	}
	return l1, nil
}

// cancelCheckRows is how many rows a partition closure processes between
// cooperative cancellation checks: frequent enough that a runaway pass (e.g.
// a candidate explosion) stops promptly, rare enough to cost nothing.
const cancelCheckRows = 512

// countBufs pools the dense per-partition count buffers of countPass so
// that passes and partitions reuse them instead of allocating one per task.
var countBufs sync.Pool

// takeCounts returns a zeroed count buffer of length n.
func takeCounts(n int) []int {
	if p, ok := countBufs.Get().(*[]int); ok && cap(*p) >= n {
		buf := (*p)[:n]
		clear(buf)
		return buf
	}
	return make([]int, n)
}

func putCounts(buf []int) {
	countBufs.Put(&buf)
}

// countPass runs one Phase II support-counting job: broadcast the candidate
// hash tree, scan the cached transactions accumulating matches into a dense
// per-partition count array indexed by candidate id, flush one
// <candidate, count> pair per locally occurring candidate, reduceByKey, and
// keep those meeting the minimum support. The dense accumulation is the
// map-side combining step: shuffle volume is bounded by the candidate count
// per partition, not the match count, and the scan itself allocates only
// the flushed pairs (the counter buffer is pooled, the hash-tree matcher
// reuses its scratch across rows, and CPU charges are batched per
// cancel-check block instead of per candidate).
func countPass(ctx *rdd.Context, trans *rdd.RDD[itemset.Itemset],
	cands []itemset.Itemset, minCount, parts, k int, brute bool) ([]apriori.SetCount, error) {

	tree := hashtree.Build(cands)
	bc := rdd.NewBroadcast(ctx, tree, tree.SerializedBytes())

	name := fmt.Sprintf("matchC%d", k)
	found := rdd.MapPartitions(trans, name,
		func(_ int, rows []itemset.Itemset, led *sim.Ledger) ([]shuffle.Pair[int, int], error) {
			t := bc.Acquire(led)
			counts := takeCounts(t.Len())
			defer putCounts(counts)
			var ops int64
			if brute {
				for r, tr := range rows {
					if r%cancelCheckRows == 0 {
						if err := ctx.Err(); err != nil {
							return nil, err
						}
						led.AddCPU(float64(ops))
						ops = 0
					}
					for i, c := range t.Candidates() {
						ops += int64(c.Len())
						if tr.ContainsAll(c) {
							counts[i]++
						}
					}
				}
			} else {
				m := t.NewMatcher()
				for r, tr := range rows {
					if r%cancelCheckRows == 0 {
						if err := ctx.Err(); err != nil {
							return nil, err
						}
						led.AddCPU(float64(ops))
						ops = 0
					}
					ops += m.Subset(tr, func(i int) { counts[i]++ })
				}
			}
			led.AddCPU(float64(ops))
			nonzero := 0
			for _, c := range counts {
				if c != 0 {
					nonzero++
				}
			}
			out := make([]shuffle.Pair[int, int], 0, nonzero)
			for i, c := range counts {
				if c != 0 {
					out = append(out, shuffle.Pair[int, int]{Key: i, Value: c})
				}
			}
			return out, nil
		})
	counted := rdd.ReduceByKey(found, fmt.Sprintf("countC%d", k),
		func(a, b int) int { return a + b }, parts)
	frequent := rdd.Filter(counted, fmt.Sprintf("L%d", k), func(kv shuffle.Pair[int, int]) bool {
		return kv.Value >= minCount
	})
	pairs, err := rdd.Collect(frequent)
	if err != nil {
		return nil, err
	}
	lk := make([]apriori.SetCount, len(pairs))
	for i, kv := range pairs {
		lk[i] = apriori.SetCount{Set: tree.Candidate(kv.Key), Count: kv.Value}
	}
	return lk, nil
}
