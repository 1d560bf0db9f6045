// Package rddeclat implements RDD-Eclat (Singh, Garg & Mishra, arXiv
// 1912.06415) as a first-class metered engine: Zaki's Eclat — frequent
// itemset mining over a vertical tidset layout — parallelized on the
// Spark-substitute RDD engine with equivalence-class partitioning and dense
// word-at-a-time bitset kernels.
//
// The run is a fixed number of RDD jobs regardless of lattice depth:
//
//   - Pass 1 loads YAFIM's transactions RDD and caches it, assigns global
//     transaction ids from per-partition offsets, and computes the frequent
//     1-itemsets by calling YAFIM's Phase I (flatMap → map → reduceByKey),
//     so their counts are byte-identical, which the parity suite locks.
//   - The vertical build shuffles (dense item id, tidlist-fragment) pairs —
//     map-side combined so each partition emits one fragment per occurring
//     item — merges them into full tidlists, and converts the collected
//     lists into one transaction bitset per frequent item, keyed by the
//     itemset.ItemIndex dense id and broadcast to the cluster.
//   - Pass 2 partitions the k=1 prefix equivalence classes across tasks and
//     intersects every item pair with a fused AND+popcount word loop,
//     yielding the frequent 2-itemsets.
//   - The deep pass partitions the k=2 prefix equivalence classes (one per
//     frequent 2-itemset, the granularity the RDD-Eclat variants found to
//     balance best) across tasks; each class is mined depth-first locally,
//     carrying intersected bitsets down the recursion exactly like the
//     sequential internal/eclat oracle carries tidlists — so the two
//     engines agree set for set and count for count.
//
// Every intersection charges the task ledger one op per 64-bit word
// touched, so the virtual timeline prices the vertical kernel the same way
// the hash-tree scan prices subset enumeration. Fault tolerance is
// inherited from the RDD engine: lost cached partitions and shuffle map
// outputs are recomputed from lineage, and a node crash mid-intersection
// only re-runs the class tasks the dead node held.
package rddeclat

import (
	"fmt"
	"sort"

	"yafim/internal/apriori"
	"yafim/internal/dfs"
	"yafim/internal/itemset"
	"yafim/internal/rdd"
	"yafim/internal/shuffle"
	"yafim/internal/sim"
	"yafim/internal/yafim"
)

// Config parameterises a mining run.
type Config struct {
	// MinSupport is the relative minimum support threshold in (0,1].
	MinSupport float64
	// NumPartitions sets task granularity (0 = cluster core count).
	NumPartitions int
	// MaxK stops after frequent itemsets of this size (0 = unbounded).
	MaxK int
}

// tidlist is a sorted list of global transaction ids — the shuffle currency
// of the vertical build. Fragments from distinct input partitions cover
// disjoint tid ranges, so merging stays a linear sorted merge.
type tidlist []int32

// SizeBytes reports the tidlist's serialized size to the shuffle cost model.
func (t tidlist) SizeBytes() int64 { return int64(4*len(t)) + 4 }

// vertical is the broadcast payload of the mining passes: per frequent
// item (by dense id), the bitset of transactions containing it.
type vertical struct {
	ix    *itemset.ItemIndex
	bits  []*itemset.Bitset
	words int // words per bitset, the cost unit of one intersection
}

// pair2 is one frequent 2-itemset by dense ids (I < J) with its exact
// support — the output of pass 2 and the class descriptor of the deep pass.
type pair2 struct {
	I, J  int32
	Count int32
}

// SizeBytes implements shuffle.Sizer for collect cost estimation.
func (pair2) SizeBytes() int64 { return 12 }

// classIndex is the deep pass's second broadcast: for every dense id i, the
// sorted dense ids j > i with {i,j} frequent. The siblings of equivalence
// class (i,j) are exactly the partners of i beyond j.
type classIndex struct {
	partners [][]int32
}

// cancelCheckRows is how many rows/classes a partition closure processes
// between cooperative cancellation checks (same contract as the YAFIM
// driver: frequent enough to stop a runaway pass promptly, rare enough to
// cost nothing).
const cancelCheckRows = 512

// Mine runs RDD-Eclat over the transaction file at path in the DFS.
func Mine(ctx *rdd.Context, fs *dfs.FileSystem, path string, cfg Config) (*apriori.Trace, error) {
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return nil, fmt.Errorf("rddeclat: MinSupport %v out of (0,1]", cfg.MinSupport)
	}
	parts := cfg.NumPartitions
	if parts <= 0 {
		parts = ctx.Config().TotalCores()
	}

	trans, err := yafim.Transactions(ctx, fs, path, parts)
	if err != nil {
		return nil, fmt.Errorf("rddeclat: %w", err)
	}
	trans.Cache()

	rec := ctx.Recorder()
	rec.SetPass(1)
	passStart := ctx.NumJobs()
	passMark := rec.Counters()

	// Global transaction ids: per-partition counts, then prefix offsets.
	// The same job doubles as the transaction count, so pass 1 needs no
	// separate Count action.
	counts, err := rdd.Collect(rdd.MapPartitions(trans, "partitionSizes",
		func(_ int, rows []itemset.Itemset, _ *sim.Ledger) ([]int, error) {
			return []int{len(rows)}, nil
		}))
	if err != nil {
		return nil, fmt.Errorf("rddeclat: sizing partitions: %w", err)
	}
	offsets := make([]int32, len(counts)+1)
	for i, c := range counts {
		offsets[i+1] = offsets[i] + int32(c)
	}
	n := int64(offsets[len(counts)])
	if n == 0 {
		return nil, fmt.Errorf("rddeclat: %s holds no transactions", path)
	}
	minCount := itemset.MinSupportCount(cfg.MinSupport, n)
	rec.ObservePass("rdd", 1, int(n))

	// Pass 1 counting is YAFIM's Phase I, so the two engines' L1 is
	// byte-identical.
	l1, err := yafim.FrequentItems(trans, minCount, parts)
	if err != nil {
		return nil, fmt.Errorf("rddeclat: pass 1: %w", err)
	}

	res := &apriori.Result{MinSupport: minCount}
	trace := &apriori.Trace{Result: res}
	endPass := func(k, candidates, frequent int) {
		// Pass boundary: free the pass's shuffle output before the next
		// pass starts, then snapshot the counter delta (the same
		// iteration-scoped unpersist discipline as the YAFIM driver).
		ctx.FreeShuffles()
		trace.Passes = append(trace.Passes, apriori.PassStat{
			K: k, Candidates: candidates, Frequent: frequent,
			Duration: ctx.DurationSince(passStart),
			Counters: rec.Counters().Sub(passMark),
		})
	}
	endPass(1, int(n), len(l1))
	if len(l1) == 0 {
		return trace, nil
	}
	res.Levels = append(res.Levels, apriori.NewLevel(1, l1))
	if cfg.MaxK == 1 {
		return trace, nil
	}

	// Vertical build: dense ids for the frequent items, then one shuffle
	// turning the horizontal layout into per-item tidlists. Each input
	// partition emits at most one tidlist fragment per frequent item
	// (map-side combining: shuffle volume is bounded by items × partitions,
	// not by item occurrences).
	ix := itemset.NewItemIndex(apriori.SetsOf(l1))
	m := ix.Len()
	rec.SetPass(2)
	passStart = ctx.NumJobs()
	passMark = rec.Counters()
	rec.ObservePass("rdd", 2, m*(m-1)/2)
	tidPairs := rdd.MapPartitions(trans, "itemTids",
		func(p int, rows []itemset.Itemset, led *sim.Ledger) ([]shuffle.Pair[int32, tidlist], error) {
			lists := make([]tidlist, m)
			occurrences := 0
			for i, t := range rows {
				if i%cancelCheckRows == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				tid := offsets[p] + int32(i)
				for _, it := range t {
					if d := ix.DenseOf(it); d >= 0 {
						lists[d] = append(lists[d], tid)
						occurrences++
					}
				}
			}
			led.AddCPU(float64(occurrences))
			out := make([]shuffle.Pair[int32, tidlist], 0, m)
			for d, l := range lists {
				if len(l) > 0 {
					out = append(out, shuffle.Pair[int32, tidlist]{Key: int32(d), Value: l})
				}
			}
			return out, nil
		})
	tidlists := rdd.ReduceByKey(tidPairs, "tidlists", mergeTids, parts)
	collected, err := rdd.Collect(tidlists)
	if err != nil {
		return nil, fmt.Errorf("rddeclat: building tidlists: %w", err)
	}

	// Driver-side conversion to the dense bitset layout, broadcast once and
	// reused by pass 2 and the deep pass.
	v := &vertical{ix: ix, bits: make([]*itemset.Bitset, m), words: (int(n) + 63) / 64}
	var payload int64
	for _, kv := range collected {
		b := itemset.NewBitset(int(n))
		for _, tid := range kv.Value {
			b.Set(int(tid))
		}
		v.bits[kv.Key] = b
		payload += int64(8*v.words) + 4
	}
	bcVert := rdd.NewBroadcast(ctx, v, payload)

	// Pass 2: the k=1 prefix equivalence classes, partitioned across tasks.
	// Class i intersects item i against every item j > i with one fused
	// AND+popcount pass over the words.
	classes1 := rdd.Parallelize(ctx, "prefixClasses", seq(m), parts)
	f2 := rdd.MapPartitions(classes1, "intersectC2",
		func(_ int, idxs []int, led *sim.Ledger) ([]pair2, error) {
			vt := bcVert.Acquire(led)
			var out []pair2
			var ops int64
			for _, i := range idxs {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				bi := vt.bits[i]
				for j := i + 1; j < m; j++ {
					ops += int64(vt.words)
					if cnt := bi.AndCount(vt.bits[j]); cnt >= minCount {
						out = append(out, pair2{I: int32(i), J: int32(j), Count: int32(cnt)})
					}
				}
				led.AddCPU(float64(ops))
				ops = 0
			}
			return out, nil
		})
	l2Pairs, err := rdd.Collect(f2)
	if err != nil {
		return nil, fmt.Errorf("rddeclat: pass 2: %w", err)
	}
	// Collect interleaves partition outputs by task order; restore the
	// global (I, J) order the equivalence-class walk relies on.
	sort.Slice(l2Pairs, func(a, b int) bool {
		if l2Pairs[a].I != l2Pairs[b].I {
			return l2Pairs[a].I < l2Pairs[b].I
		}
		return l2Pairs[a].J < l2Pairs[b].J
	})
	l2 := make([]apriori.SetCount, len(l2Pairs))
	for i, p := range l2Pairs {
		l2[i] = apriori.SetCount{
			Set:   itemset.New(ix.Item(p.I), ix.Item(p.J)),
			Count: int(p.Count),
		}
	}
	endPass(2, m*(m-1)/2, len(l2))
	if len(l2) == 0 {
		return trace, nil
	}
	res.Levels = append(res.Levels, apriori.NewLevel(2, l2))
	if cfg.MaxK == 2 {
		return trace, nil
	}

	// Deep pass: one equivalence class per frequent 2-itemset (i,j),
	// partitioned across tasks; the class's extension candidates are the
	// partners of i beyond j, and each class is mined depth-first locally.
	rec.SetPass(3)
	passStart = ctx.NumJobs()
	passMark = rec.Counters()
	rec.ObservePass("rdd", 3, len(l2Pairs))
	ci := &classIndex{partners: make([][]int32, m)}
	for _, p := range l2Pairs {
		ci.partners[p.I] = append(ci.partners[p.I], p.J)
	}
	bcClasses := rdd.NewBroadcast(ctx, ci, int64(4*len(l2Pairs)))
	classes2 := rdd.Parallelize(ctx, "eqClasses", l2Pairs, parts)
	deepSets := rdd.MapPartitions(classes2, "mineClasses",
		func(_ int, cls []pair2, led *sim.Ledger) ([]apriori.SetCount, error) {
			vt := bcVert.Acquire(led)
			idx := bcClasses.Acquire(led)
			var out []apriori.SetCount
			pool := &bitPool{n: int(n)}
			for _, c := range cls {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				mineClass(vt, idx, c, minCount, cfg.MaxK, pool, led, &out)
			}
			return out, nil
		})
	deep, err := rdd.Collect(deepSets)
	if err != nil {
		return nil, fmt.Errorf("rddeclat: mining classes: %w", err)
	}
	byLevel := map[int][]apriori.SetCount{}
	for _, sc := range deep {
		byLevel[sc.Set.Len()] = append(byLevel[sc.Set.Len()], sc)
	}
	for k := 3; ; k++ {
		sets, ok := byLevel[k]
		if !ok {
			break
		}
		res.Levels = append(res.Levels, apriori.NewLevel(k, sets))
	}
	endPass(res.MaxK(), len(l2Pairs), len(deep))
	return trace, nil
}

// cell is one live node of the depth-first walk: a candidate extension item
// (dense id) with its materialised transaction bitset and exact support.
type cell struct {
	item  int32
	bits  *itemset.Bitset
	count int
}

// bitPool recycles bitsets across the depth-first walk so each class task
// allocates only as many as its deepest recursion holds live at once.
type bitPool struct {
	free []*itemset.Bitset
	n    int
}

func (p *bitPool) take() *itemset.Bitset {
	if l := len(p.free); l > 0 {
		b := p.free[l-1]
		p.free = p.free[:l-1]
		return b
	}
	return itemset.NewBitset(p.n)
}

func (p *bitPool) put(b *itemset.Bitset) { p.free = append(p.free, b) }

// mineClass mines one k=2 equivalence class (i,j): rebuild the class's
// prefix bitset, materialise the frequent sibling extensions, and walk the
// subtree depth-first. Every word touched by an intersection charges the
// ledger one op — the dense word-at-a-time kernel is the engine's unit of
// CPU cost, mirroring how the hash-tree engines charge per candidate probe.
func mineClass(v *vertical, ci *classIndex, c pair2, minCount, maxK int,
	pool *bitPool, led *sim.Ledger, out *[]apriori.SetCount) {

	partners := ci.partners[c.I]
	// Siblings of class (i,j): partners of i strictly beyond j.
	k := sort.Search(len(partners), func(x int) bool { return partners[x] > c.J })
	siblings := partners[k:]
	if len(siblings) == 0 {
		return
	}

	var ops int64
	base := pool.take()
	base.AndCountInto(v.bits[c.I], v.bits[c.J])
	ops += int64(v.words)

	var dfs func(prefix itemset.Itemset, ext []cell)
	dfs = func(prefix itemset.Itemset, ext []cell) {
		for idx, e := range ext {
			set := prefix.Extend(v.ix.Item(e.item))
			*out = append(*out, apriori.SetCount{Set: set, Count: e.count})
			if maxK != 0 && set.Len() >= maxK {
				continue
			}
			var next []cell
			for _, d := range ext[idx+1:] {
				tmp := pool.take()
				cnt := tmp.AndCountInto(e.bits, d.bits)
				ops += int64(v.words)
				if cnt >= minCount {
					next = append(next, cell{item: d.item, bits: tmp, count: cnt})
				} else {
					pool.put(tmp)
				}
			}
			if len(next) > 0 {
				dfs(set, next)
			}
			for _, nc := range next {
				pool.put(nc.bits)
			}
		}
	}

	prefix := itemset.New(v.ix.Item(c.I), v.ix.Item(c.J))
	if maxK == 0 || prefix.Len() < maxK {
		ext := make([]cell, 0, len(siblings))
		for _, s := range siblings {
			tmp := pool.take()
			cnt := tmp.AndCountInto(base, v.bits[s])
			ops += int64(v.words)
			if cnt >= minCount {
				ext = append(ext, cell{item: s, bits: tmp, count: cnt})
			} else {
				pool.put(tmp)
			}
		}
		dfs(prefix, ext)
		for _, e := range ext {
			pool.put(e.bits)
		}
	}
	pool.put(base)
	led.AddCPU(float64(ops))
}

// mergeTids merges two sorted tidlists (fragments from distinct input
// partitions are disjoint, but the merge tolerates arbitrary overlap).
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

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
