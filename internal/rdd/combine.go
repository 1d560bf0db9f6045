package rdd

import (
	"cmp"
	"slices"

	"yafim/internal/sim"
)

// combineState holds one shuffle's map-side output: for every map task its
// combined records, one key-sorted run per reduce partition laid back to
// back in a single slice, with each run's estimated serialized size. Its
// lifecycle — when the runs exist, when an error forces a re-run, when a
// node loss punches holes, when the memory is reclaimed — lives in the
// embedded shuffleCore, registered with the Context.
type combineState[K cmp.Ordered, V any] struct {
	core  *shuffleCore
	runs  [][]Pair[K, V] // [mapTask]; reduce partition r's run is runs[m][offs[m][r]:offs[m][r+1]]
	offs  [][]int        // [mapTask][reducePart+1]
	bytes [][]int64      // [mapTask][reducePart]
}

// ReduceByKey combines all values sharing a key with the associative,
// commutative function combine, producing an RDD with parts partitions (0
// means inherit the parent's). Output partitions are sorted by key for
// determinism; keys must be totally ordered by <, so float keys must not be
// NaN.
//
// Like Spark's, it combines map-side before anything is spilled, so shuffle
// volume is one record per distinct key per map task rather than one per
// value; it hash partitions by key, writes shuffle output to (virtual)
// local disk, and fetches it over the (virtual) network on the reduce side;
// every step is ledger-metered. Each map task's output is a key-sorted run
// per reduce partition, and the reduce side merges the runs, so equal keys
// always combine as combine(earlier, later) in map-task and row order. The
// spilled output is tracked by the context's shuffle lifecycle manager: a
// failed or canceled map stage invalidates it (the next action re-runs
// instead of replaying the error), KillNode destroys the dead node's slices
// (re-run of just the missing map tasks), and Context.FreeShuffles reclaims
// it.
func ReduceByKey[K cmp.Ordered, V any](r *RDD[Pair[K, V]], name string,
	combine func(V, V) V, parts int) *RDD[Pair[K, V]] {
	if parts <= 0 {
		parts = r.parts
	}
	st := &combineState[K, V]{}
	st.core = newShuffleCore(r.ctx, name, r.parts,
		func(p int) { st.runs[p], st.offs[p], st.bytes[p] = nil, nil, nil },
		func() { st.runs, st.offs, st.bytes = nil, nil, nil })
	out := newRDD[Pair[K, V]](r.ctx, name, parts, []preparable{r}, nil)
	pairSize := newPairSizer[K, V]()

	// runMap executes the map side for one parent partition: hash-partition
	// into runs, combine per key, spill to (virtual) local disk.
	runMap := func(p int, led *sim.Ledger) error {
		rows, err := r.materialize(p, led)
		if err != nil {
			return err
		}
		runs, offs := combineRuns(rows, parts, combine)
		sizes := make([]int64, parts)
		var spill int64
		for i := range sizes {
			sizes[i] = pairSize.total(runs[offs[i]:offs[i+1]])
			spill += sizes[i]
		}
		// Map-side cost: touch each row twice (hash + combine), then
		// spill the combined shuffle output to local disk.
		led.AddCPU(2 * float64(len(rows)))
		led.AddDiskWrite(spill)
		st.runs[p], st.offs[p], st.bytes[p] = runs, offs, sizes
		return nil
	}
	taskBytes := func(p int) int64 {
		var n int64
		for _, sz := range st.bytes[p] {
			n += sz
		}
		return n
	}

	out.prepare = func() error {
		missing, runAll := st.core.plan()
		if runAll {
			st.runs = make([][]Pair[K, V], r.parts)
			st.offs = make([][]int, r.parts)
			st.bytes = make([][]int64, r.parts)
			err := r.ctx.runTasks(name+":map", r.lineageNames(), r.parts, r.prefs, runMap)
			if err != nil {
				st.core.invalidate()
				return err
			}
			bytes := make([]int64, r.parts)
			for p := range bytes {
				bytes[p] = taskBytes(p)
			}
			st.core.commit(nil, bytes)
			// Per-partition output shape for the skew analysis, observed
			// driver-side after the stage committed so retried attempts are
			// never double-counted and no task ledger is touched.
			if rec := r.ctx.rec; rec.Enabled() {
				for p, runs := range st.runs {
					rec.ObservePartitionOutput("rdd", name+":map", len(runs), bytes[p])
				}
			}
			return nil
		}
		if len(missing) == 0 {
			return nil
		}
		return st.core.recover(missing, r.prefs, r.lineageNames(), runMap, taskBytes)
	}
	out.compute = func(p int, led *sim.Ledger) ([]Pair[K, V], error) {
		if !st.core.ready() {
			return nil, &shuffleMissingError{name: name}
		}
		// Chaos: a failed shuffle fetch means one map task's output is gone.
		// The RDD recovery story is lineage: recompute just that parent
		// partition (a cache hit when the parent is cached — near free) and
		// rebuild its map-side output. The resident runs are reused as the
		// recomputation's byte-identical result; only the cost is charged.
		if plan := r.ctx.ChaosPlan(); plan.FetchFails(name, p) {
			victim := plan.FetchVictim(name, p, r.parts)
			r.ctx.rec.AddFetchFailure()
			r.ctx.rec.AddStageRerun()
			led.AddNet(st.bytes[victim][p]) // the fetch that found nothing
			rows, err := r.materialize(victim, led)
			if err != nil {
				return nil, err
			}
			var spill int64
			for _, sz := range st.bytes[victim] {
				spill += sz
			}
			led.AddCPU(2 * float64(len(rows)))
			led.AddDiskWrite(spill)
		}
		runs := make([][]Pair[K, V], len(st.runs))
		var fetched int64
		records := 0
		for m := range st.runs {
			led.AddNet(st.bytes[m][p])
			led.AddDiskRead(st.bytes[m][p])
			fetched += st.bytes[m][p]
			runs[m] = st.runs[m][st.offs[m][p]:st.offs[m][p+1]]
			records += len(runs[m])
		}
		// Reduce-side cost: one op per fetched record merged, one per
		// output record.
		led.AddCPU(float64(records))
		m := merger[K, V]{combine: combine}
		merged := m.merge(runs) // may be a resident run itself: copy it out
		out := make([]Pair[K, V], len(merged))
		copy(out, merged)
		led.AddCPU(float64(len(out)))
		r.ctx.rec.AddShuffleBytes(fetched)
		return out, nil
	}
	return out
}

// combineRuns is the map-side combine of one task. It places each row in
// its hashKey(key) % parts bucket of one slice, keeping row order, and
// folds each bucket into a run: equal keys in a row fold on the spot, and a
// bucket that is not ascending (YAFIM's counting closure emits ascending
// ids, so its buckets are) is cut into ascending stretches that merge
// sort back together. Run i of the result is runs[offs[i]:offs[i+1]]: one
// record per distinct key, ascending, each value the left fold of the key's
// values in row order. The slice is exactly as long as the records it
// holds.
func combineRuns[K cmp.Ordered, V any](rows []Pair[K, V], parts int,
	combine func(V, V) V) (runs []Pair[K, V], offs []int) {
	bucket := make([]int32, len(rows))
	offs = make([]int, parts+1)
	for i := range rows {
		b := int(hashKey(rows[i].Key)) % parts
		bucket[i] = int32(b)
		offs[b+1]++
	}
	for b := 1; b <= parts; b++ {
		offs[b] += offs[b-1]
	}
	runs = make([]Pair[K, V], len(rows))
	next := slices.Clone(offs[:parts])
	for i, b := range bucket {
		runs[next[b]] = rows[i]
		next[b]++
	}
	// Fold each bucket in place, compacting the runs towards the front: w
	// never passes the record being read.
	m := merger[K, V]{combine: combine}
	var stretches [][]Pair[K, V]
	w := 0
	for b := 0; b < parts; b++ {
		in := runs[offs[b]:offs[b+1]]
		start := w
		offs[b] = w
		stretches = stretches[:0]
		for i, kv := range in {
			if i > 0 {
				if kv.Key == runs[w-1].Key {
					runs[w-1].Value = combine(runs[w-1].Value, kv.Value)
					continue
				}
				if kv.Key < runs[w-1].Key {
					stretches = append(stretches, runs[start:w])
					start = w
				}
			}
			runs[w] = kv
			w++
		}
		if len(stretches) > 0 {
			stretches = append(stretches, runs[start:w])
			w = offs[b] + copy(runs[offs[b]:], m.merge(stretches))
		}
	}
	offs[parts] = w
	if w < len(runs) {
		runs = slices.Clone(runs[:w])
	}
	return runs, offs
}

// merger merges key-sorted runs of distinct keys into one key-sorted run,
// reusing its two buffers from call to call.
type merger[K cmp.Ordered, V any] struct {
	combine func(V, V) V
	bufs    [2][]Pair[K, V]
}

// merge merges runs pairwise in a balanced tree, level by level between the
// two buffers, so each record is copied about log2(len(runs)) times. The
// earlier run is always the left operand, so equal keys combine as
// combine(earlier, later), and any associative combine gives the result of
// a left fold in run order. merge overwrites runs' entries, and its result
// may alias a run or a buffer, so it is valid only until the next call.
func (m *merger[K, V]) merge(runs [][]Pair[K, V]) []Pair[K, V] {
	n := 0
	for _, run := range runs {
		n += len(run)
	}
	for level := 0; len(runs) > 1; level++ {
		// A level's output is no longer than its input, so a buffer sized
		// for one level fits every later level it serves.
		buf := &m.bufs[level%2]
		if cap(*buf) < n {
			*buf = make([]Pair[K, V], 0, n)
		}
		dst := (*buf)[:0]
		next := runs[:0] // entry i/2 is written only after entries i and i+1 are read
		for i := 0; i < len(runs); i += 2 {
			lo := len(dst)
			if i+1 < len(runs) {
				dst = mergeTwo(dst, runs[i], runs[i+1], m.combine)
			} else {
				dst = append(dst, runs[i]...)
			}
			next = append(next, dst[lo:len(dst):len(dst)])
		}
		runs, n = next, len(dst)
	}
	if len(runs) == 0 {
		return nil
	}
	return runs[0]
}

// mergeTwo appends the merge of key-sorted runs a and b (each with distinct
// keys) to dst, combining a key present in both as combine(a's, b's).
func mergeTwo[K cmp.Ordered, V any](dst, a, b []Pair[K, V], combine func(V, V) V) []Pair[K, V] {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Key < b[j].Key:
			dst = append(dst, a[i])
			i++
		case b[j].Key < a[i].Key:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, Pair[K, V]{a[i].Key, combine(a[i].Value, b[j].Value)})
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
