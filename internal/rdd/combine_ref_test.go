package rdd

import (
	"cmp"
	"sort"

	"yafim/internal/shuffle"
	"yafim/internal/sim"
)

// refCombineState is the map-based shuffle state ReduceByKey kept before it
// moved to key-sorted runs: for every map task a Go map per reduce
// partition, with the bucket's estimated serialized size.
type refCombineState[K cmp.Ordered, V any] struct {
	core    *shuffleCore
	buckets [][]map[K]V // [mapTask][reducePart]
	bytes   [][]int64   // [mapTask][reducePart]
}

// refReduceByKey is ReduceByKey as it was before the sorted-run shuffle,
// kept as the parity reference: a Go map per map-side bucket, a map merge
// and a sort on the reduce side. ReduceByKey must match it in output rows,
// every stage's cost and clock, and the telemetry it records.
func refReduceByKey[K cmp.Ordered, V any](r *RDD[shuffle.Pair[K, V]], name string,
	combine func(V, V) V, parts int) *RDD[shuffle.Pair[K, V]] {
	if parts <= 0 {
		parts = r.parts
	}
	st := &refCombineState[K, V]{}
	st.core = newShuffleCore(r.ctx, name, r.parts,
		func(p int) { st.buckets[p], st.bytes[p] = nil, nil },
		func() { st.buckets, st.bytes = nil, nil })
	out := newRDD[shuffle.Pair[K, V]](r.ctx, name, parts, []preparable{r}, nil)

	// runMap executes the map side for one parent partition: hash-partition
	// into buckets, combine per key, spill to (virtual) local disk.
	runMap := func(p int, led *sim.Ledger) error {
		rows, err := r.materialize(p, led)
		if err != nil {
			return err
		}
		buckets := make([]map[K]V, parts)
		for i := range buckets {
			buckets[i] = make(map[K]V)
		}
		for _, kv := range rows {
			b := buckets[shuffle.HashKey(kv.Key)%uint32(parts)]
			if old, ok := b[kv.Key]; ok {
				b[kv.Key] = combine(old, kv.Value)
			} else {
				b[kv.Key] = kv.Value
			}
		}
		sizes := make([]int64, parts)
		var spill int64
		for i, b := range buckets {
			for k, v := range b {
				sizes[i] += shuffle.Pair[K, V]{Key: k, Value: v}.SizeBytes()
			}
			spill += sizes[i]
		}
		// Map-side cost: touch each row twice (hash + combine), then
		// spill the combined shuffle output to local disk.
		led.AddCPU(2 * float64(len(rows)))
		led.AddDiskWrite(spill)
		st.buckets[p] = buckets
		st.bytes[p] = sizes
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
			st.buckets = make([][]map[K]V, r.parts)
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
				for p := range st.buckets {
					rows := 0
					for _, b := range st.buckets[p] {
						rows += len(b)
					}
					rec.ObservePartitionOutput("rdd", name+":map", rows, bytes[p])
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
		// rebuild its map-side output. The resident buckets are reused as the
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
		merged := make(map[K]V)
		var fetched int64
		for m := range st.buckets {
			led.AddNet(st.bytes[m][p])
			led.AddDiskRead(st.bytes[m][p])
			fetched += st.bytes[m][p]
			for k, v := range st.buckets[m][p] {
				if old, ok := merged[k]; ok {
					merged[k] = combine(old, v)
				} else {
					merged[k] = v
				}
				led.AddCPU(1)
			}
		}
		out := make([]shuffle.Pair[K, V], 0, len(merged))
		for k, v := range merged {
			out = append(out, shuffle.Pair[K, V]{Key: k, Value: v})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		led.AddCPU(float64(len(out)))
		r.ctx.rec.AddShuffleBytes(fetched)
		return out, nil
	}
	return out
}
