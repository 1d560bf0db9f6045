// Package disteclat implements Dist-Eclat (Moens, Aksehirli & Goethals,
// reference [24] of the paper) on the RDD engine: the vertical-layout
// counterpart to YAFIM's level-wise mining. The tidlist database is built
// with one shuffle, broadcast to the cluster, and the prefix subtrees of
// the search space are then mined depth-first in parallel, one task batch
// per group of frequent-item prefixes.
//
// Where YAFIM runs one synchronised job per itemset length, Dist-Eclat
// needs a fixed number of jobs regardless of lattice depth — the speed-
// oriented trade-off its authors describe — at the cost of broadcasting the
// vertical database to every worker.
package disteclat

import (
	"fmt"
	"sort"

	"yafim/internal/apriori"
	"yafim/internal/dfs"
	"yafim/internal/itemset"
	"yafim/internal/rdd"
	"yafim/internal/sim"
)

// Config parameterises a mining run.
type Config struct {
	// MinSupport is the relative minimum support threshold in (0,1].
	MinSupport float64
	// NumPartitions sets task granularity (0 = cluster core count).
	NumPartitions int
}

// tidlist is a sorted list of transaction ids.
type tidlist []int32

// SizeBytes reports the tidlist's serialized size to the shuffle cost
// model (rdd.Sizer).
func (t tidlist) SizeBytes() int64 { return int64(4*len(t)) + 4 }

// vertical is the broadcast payload: per frequent item, its tidlist.
type vertical struct {
	items []itemset.Item // frequent items, ascending
	tids  map[itemset.Item]tidlist
}

// Mine runs Dist-Eclat over the transaction file at path.
func Mine(ctx *rdd.Context, fs *dfs.FileSystem, path string, cfg Config) (*apriori.Trace, error) {
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return nil, fmt.Errorf("disteclat: MinSupport %v out of (0,1]", cfg.MinSupport)
	}
	parts := cfg.NumPartitions
	if parts <= 0 {
		parts = ctx.Config().TotalCores()
	}

	lines, err := rdd.TextFile(ctx, fs, path, parts)
	if err != nil {
		return nil, fmt.Errorf("disteclat: %w", err)
	}
	trans := rdd.MapPartitions(lines, "transactions",
		func(_ int, rows []string, led *sim.Ledger) ([]itemset.Itemset, error) {
			out := make([]itemset.Itemset, 0, len(rows))
			bytes := 0
			for _, row := range rows {
				t, err := itemset.ParseLine(row)
				if err != nil {
					return nil, err
				}
				out = append(out, t)
				bytes += len(row)
			}
			led.AddCPU(float64(bytes))
			return out, nil
		}).Cache()

	// Assign global transaction ids: per-partition counts, then offsets.
	counts, err := rdd.Collect(rdd.MapPartitions(trans, "partitionSizes",
		func(_ int, rows []itemset.Itemset, _ *sim.Ledger) ([]int, error) {
			return []int{len(rows)}, nil
		}))
	if err != nil {
		return nil, fmt.Errorf("disteclat: sizing partitions: %w", err)
	}
	offsets := make([]int32, len(counts)+1)
	for i, c := range counts {
		offsets[i+1] = offsets[i] + int32(c)
	}
	n := int64(offsets[len(counts)])
	if n == 0 {
		return nil, fmt.Errorf("disteclat: %s holds no transactions", path)
	}
	minCount := itemset.MinSupportCount(cfg.MinSupport, n)

	// One shuffle builds the vertical layout: (item, [tid]) pairs combined
	// into full tidlists, pruned to frequent items.
	pairs := rdd.MapPartitions(trans, "itemTids",
		func(p int, rows []itemset.Itemset, led *sim.Ledger) ([]rdd.Pair[int32, tidlist], error) {
			var out []rdd.Pair[int32, tidlist]
			for i, t := range rows {
				tid := offsets[p] + int32(i)
				for _, it := range t {
					out = append(out, rdd.Pair[int32, tidlist]{Key: int32(it), Value: tidlist{tid}})
				}
			}
			led.AddCPU(float64(len(out)))
			return out, nil
		})
	lists := rdd.ReduceByKey(pairs, "tidlists", mergeTids, parts)
	frequent := rdd.Filter(lists, "frequentTidlists", func(kv rdd.Pair[int32, tidlist]) bool {
		return len(kv.Value) >= minCount
	})
	collected, err := rdd.Collect(frequent)
	if err != nil {
		return nil, fmt.Errorf("disteclat: building tidlists: %w", err)
	}

	res := &apriori.Result{MinSupport: minCount}
	trace := &apriori.Trace{Result: res}
	buildDone := ctx.TotalDuration()
	trace.Passes = append(trace.Passes, apriori.PassStat{
		K: 1, Candidates: int(n), Frequent: len(collected), Duration: buildDone,
	})
	if len(collected) == 0 {
		return trace, nil
	}

	v := &vertical{tids: make(map[itemset.Item]tidlist, len(collected))}
	var l1 []apriori.SetCount
	var payload int64
	for _, kv := range collected {
		it := itemset.Item(kv.Key)
		v.items = append(v.items, it)
		v.tids[it] = kv.Value
		l1 = append(l1, apriori.SetCount{Set: itemset.New(it), Count: len(kv.Value)})
		payload += int64(4*len(kv.Value) + 8)
	}
	// Reduce partitions interleave hash ranges, so restore the global item
	// order the prefix walk relies on.
	sort.Slice(v.items, func(i, j int) bool { return v.items[i] < v.items[j] })
	res.Levels = append(res.Levels, apriori.NewLevel(1, l1))
	bc := rdd.NewBroadcast(ctx, v, payload)

	// Mine the prefix subtrees in parallel: prefix i explores itemsets
	// {items[i], items[j>i], ...} by tidlist intersection.
	prefixes := rdd.Parallelize(ctx, "prefixes", seq(len(v.items)), parts)
	mined := rdd.MapPartitions(prefixes, "mineSubtrees",
		func(_ int, idxs []int, led *sim.Ledger) ([]apriori.SetCount, error) {
			shared := bc.Acquire(led)
			var out []apriori.SetCount
			for _, i := range idxs {
				mineSubtree(shared, i, minCount, led, &out)
			}
			return out, nil
		})
	deep, err := rdd.Collect(mined)
	if err != nil {
		return nil, fmt.Errorf("disteclat: mining subtrees: %w", err)
	}
	byLevel := map[int][]apriori.SetCount{}
	for _, sc := range deep {
		byLevel[sc.Set.Len()] = append(byLevel[sc.Set.Len()], sc)
	}
	for k := 2; ; k++ {
		sets, ok := byLevel[k]
		if !ok {
			break
		}
		res.Levels = append(res.Levels, apriori.NewLevel(k, sets))
	}

	trace.Passes = append(trace.Passes, apriori.PassStat{
		K: res.MaxK(), Candidates: len(v.items), Frequent: res.NumFrequent(),
		Duration: ctx.TotalDuration() - buildDone,
	})
	return trace, nil
}

// mineSubtree explores all frequent extensions of prefix items[i] by
// depth-first tidlist intersection, charging one op per tid touched.
func mineSubtree(v *vertical, i, minCount int, led *sim.Ledger, out *[]apriori.SetCount) {
	var dfs func(prefix itemset.Itemset, prefixTids tidlist, from int)
	dfs = func(prefix itemset.Itemset, prefixTids tidlist, from int) {
		for j := from; j < len(v.items); j++ {
			other := v.items[j]
			shared := intersect(prefixTids, v.tids[other])
			led.AddCPU(float64(len(prefixTids) + len(v.tids[other])))
			if len(shared) < minCount {
				continue
			}
			set := prefix.Extend(other)
			*out = append(*out, apriori.SetCount{Set: set, Count: len(shared)})
			dfs(set, shared, j+1)
		}
	}
	root := v.items[i]
	dfs(itemset.New(root), v.tids[root], i+1)
}

func mergeTids(a, b tidlist) tidlist {
	out := make(tidlist, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func intersect(a, b tidlist) tidlist {
	out := make(tidlist, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
