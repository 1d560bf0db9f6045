package rdd

import (
	"cmp"

	"yafim/internal/shuffle"
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
	runs  [][]shuffle.Pair[K, V] // [mapTask]; reduce partition r's run is runs[m][offs[m][r]:offs[m][r+1]]
	offs  [][]int                // [mapTask][reducePart+1]
	bytes [][]int64              // [mapTask][reducePart]
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
func ReduceByKey[K cmp.Ordered, V any](r *RDD[shuffle.Pair[K, V]], name string,
	combine func(V, V) V, parts int) *RDD[shuffle.Pair[K, V]] {
	if parts <= 0 {
		parts = r.parts
	}
	st := &combineState[K, V]{}
	st.core = newShuffleCore(r.ctx, name, r.parts,
		func(p int) { st.runs[p], st.offs[p], st.bytes[p] = nil, nil, nil },
		func() { st.runs, st.offs, st.bytes = nil, nil, nil })
	out := newRDD[shuffle.Pair[K, V]](r.ctx, name, parts, []preparable{r}, nil)
	pairSize := shuffle.NewPairPricer[K, V]()

	// runMap executes the map side for one parent partition: hash-partition
	// into runs, combine per key, spill to (virtual) local disk.
	runMap := func(p int, led *sim.Ledger) error {
		rows, err := r.materialize(p, led)
		if err != nil {
			return err
		}
		runs, offs := shuffle.CombineRuns(rows, parts, combine)
		sizes := make([]int64, parts)
		var spill int64
		for i := range sizes {
			sizes[i] = pairSize.Total(runs[offs[i]:offs[i+1]])
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
			st.runs = make([][]shuffle.Pair[K, V], r.parts)
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
	out.compute = func(p int, led *sim.Ledger) ([]shuffle.Pair[K, V], error) {
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
		runs := make([][]shuffle.Pair[K, V], len(st.runs))
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
		m := shuffle.Merger[K, V]{Combine: combine}
		merged := m.Merge(runs) // may be a resident run itself: copy it out
		out := make([]shuffle.Pair[K, V], len(merged))
		copy(out, merged)
		led.AddCPU(float64(len(out)))
		r.ctx.rec.AddShuffleBytes(fetched)
		return out, nil
	}
	return out
}
