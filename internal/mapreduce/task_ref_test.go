package mapreduce

import (
	"fmt"
	"hash/fnv"
	"sort"

	"yafim/internal/sim"
)

// The task bodies as they were before the shuffle moved to key-sorted runs,
// kept as the parity reference: a Go map per reduce partition routed by a
// separate FNV-1a, a map merge and a key sort on the reduce side. MapTask
// and ReduceTask must match them in output, record counters and every
// ledger charge.

// refPartition is one map task's output for one reduce partition: the
// values of each key, in emit order.
type refPartition map[string][]string

// refMapOutput is refMapTask's partitioned, optionally combined output.
type refMapOutput struct {
	Partitions                               []refPartition
	Bytes                                    []int64
	InputRecords, MapRecords, CombineRecords int64
}

func refMapTask(t int, mapper Mapper, combiner Reducer,
	read func() ([]Record, error), reducers int, led *sim.Ledger) (*refMapOutput, error) {
	recs, err := read()
	if err != nil {
		return nil, fmt.Errorf("task %d read: %w", t, err)
	}
	out := &refMapOutput{
		Partitions:   make([]refPartition, reducers),
		Bytes:        make([]int64, reducers),
		InputRecords: int64(len(recs)),
	}
	for i := range out.Partitions {
		out.Partitions[i] = make(refPartition)
	}
	emit := func(k, v string) {
		b := out.Partitions[refPartitionOf(k, reducers)]
		b[k] = append(b[k], v)
		out.MapRecords++
	}
	for _, rec := range recs {
		if err := mapper.Map(rec, emit, led); err != nil {
			return nil, fmt.Errorf("task %d map: %w", t, err)
		}
	}
	if err := mapper.Cleanup(emit, led); err != nil {
		return nil, fmt.Errorf("task %d cleanup: %w", t, err)
	}
	led.AddCPU(float64(len(recs)) + float64(out.MapRecords))

	if combiner != nil {
		for i, b := range out.Partitions {
			nb := make(refPartition, len(b))
			cemit := func(k, v string) {
				nb[k] = append(nb[k], v)
				out.CombineRecords++
			}
			for k, vs := range b {
				if err := combiner.Reduce(k, vs, cemit, led); err != nil {
					return nil, fmt.Errorf("task %d combine: %w", t, err)
				}
				led.AddCPU(float64(len(vs)))
			}
			out.Partitions[i] = nb
		}
	}

	var records int64
	for i, b := range out.Partitions {
		for k, vs := range b {
			for _, v := range vs {
				out.Bytes[i] += pairBytes(k, v)
				records++
			}
		}
	}
	led.AddCPU(nLogN(records))
	for _, n := range out.Bytes {
		led.AddDiskWrite(n)
	}
	return out, nil
}

// refReduceTask merges partitions into one map and sorts its keys.
type refReduceTask struct {
	t       int
	reducer Reducer
	led     *sim.Ledger
	merged  map[string][]string
	records int64
}

func newRefReduceTask(t int, reducer Reducer, led *sim.Ledger) *refReduceTask {
	return &refReduceTask{t: t, reducer: reducer, led: led, merged: make(map[string][]string)}
}

func (rt *refReduceTask) Merge(p refPartition) {
	for k, vs := range p {
		rt.merged[k] = append(rt.merged[k], vs...)
		rt.records += int64(len(vs))
	}
}

func (rt *refReduceTask) Reduce(emit Emit) (int64, error) {
	rt.led.AddCPU(nLogN(rt.records))
	keys := make([]string, 0, len(rt.merged))
	for k := range rt.merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		vs := rt.merged[k]
		if err := rt.reducer.Reduce(k, vs, emit, rt.led); err != nil {
			return 0, fmt.Errorf("reducer %d key %q: %w", rt.t, k, err)
		}
		rt.led.AddCPU(float64(len(vs)))
	}
	return int64(len(keys)), nil
}

func refPartitionOf(key string, numReducers int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(numReducers))
}

// refRun is p as a Run: its keys in ascending order, each with its values.
func refRun(p refPartition) Run {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var run Run
	for _, k := range keys {
		run = append(run, kv(k, p[k]...))
	}
	return run
}
