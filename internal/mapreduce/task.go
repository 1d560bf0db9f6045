package mapreduce

import (
	"fmt"
	"hash/fnv"
	"sort"

	"yafim/internal/dfs"
	"yafim/internal/sim"
)

// The task bodies below are the one implementation of a map task and a
// reduce task. The Runner's stages call them with the task's metered
// ledger; the distributed runtime's workers call them with a throwaway one,
// reading their split from a real file and fetching partitions over HTTP.
// Sharing the bodies is what makes a distributed job's output byte-equal to
// the sim's.

// Partition is one map task's output for one reduce partition: the values
// of each key, in emit order.
type Partition map[string][]string

// MapOutput is one map task's partitioned, optionally combined output.
type MapOutput struct {
	Partitions []Partition // by reduce partition
	Bytes      []int64     // spilled size of each partition
	// InputRecords counts the lines read, MapRecords the records the mapper
	// emitted and CombineRecords those the combiner emitted (zero without
	// one).
	InputRecords, MapRecords, CombineRecords int64
}

// MapTask is the body of map task t: set the mapper up, read the split,
// map every line, clean up, route each record to its partitionOf partition,
// fold each partition through the combiner (nil for none) and charge the
// sort-and-spill. Every charge goes to led, in that order.
func MapTask(t int, mapper Mapper, combiner Reducer, cache CacheFiles,
	read func() ([]dfs.Line, error), reducers int, led *sim.Ledger) (*MapOutput, error) {
	if err := mapper.Setup(cache, led); err != nil {
		return nil, fmt.Errorf("task %d setup: %w", t, err)
	}
	lines, err := read()
	if err != nil {
		return nil, fmt.Errorf("task %d read: %w", t, err)
	}
	out := &MapOutput{
		Partitions:   make([]Partition, reducers),
		Bytes:        make([]int64, reducers),
		InputRecords: int64(len(lines)),
	}
	for i := range out.Partitions {
		out.Partitions[i] = make(Partition)
	}
	emit := func(k, v string) {
		b := out.Partitions[partitionOf(k, reducers)]
		b[k] = append(b[k], v)
		out.MapRecords++
	}
	for _, line := range lines {
		if err := mapper.Map(line.Offset, line.Text, emit, led); err != nil {
			return nil, fmt.Errorf("task %d map: %w", t, err)
		}
	}
	if err := mapper.Cleanup(emit, led); err != nil {
		return nil, fmt.Errorf("task %d cleanup: %w", t, err)
	}
	led.AddCPU(float64(len(lines)) + float64(out.MapRecords))

	if combiner != nil {
		if err := combiner.Setup(cache, led); err != nil {
			return nil, fmt.Errorf("task %d combiner setup: %w", t, err)
		}
		for i, b := range out.Partitions {
			nb := make(Partition, len(b))
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

	// Sort-and-spill: Hadoop sorts map output before writing it to local
	// disk; charge n log n comparisons plus the spill bytes.
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

// ReduceTask is the body of one reduce task: NewReduceTask sets the reducer
// up, Merge takes each map task's partition as it arrives, and Reduce sorts
// the keys and reduces them.
type ReduceTask struct {
	t       int
	reducer Reducer
	led     *sim.Ledger
	merged  map[string][]string
	records int64
}

// NewReduceTask sets reducer up for reduce task t, charging led.
func NewReduceTask(t int, reducer Reducer, cache CacheFiles, led *sim.Ledger) (*ReduceTask, error) {
	if err := reducer.Setup(cache, led); err != nil {
		return nil, fmt.Errorf("reducer %d setup: %w", t, err)
	}
	return &ReduceTask{t: t, reducer: reducer, led: led, merged: make(map[string][]string)}, nil
}

// Merge appends one map task's partition. Calls come in map-index order, so
// a key's values keep map order and, within a map, emit order.
func (rt *ReduceTask) Merge(p Partition) {
	for k, vs := range p {
		rt.merged[k] = append(rt.merged[k], vs...)
		rt.records += int64(len(vs))
	}
}

// Reduce charges the merge sort of the fetched runs, then reduces every key
// in ascending order. It returns the number of keys.
func (rt *ReduceTask) Reduce(emit Emit) (int64, error) {
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

const recordOverheadBytes = 8 // per-record framing in spills and fetches

func pairBytes(k, v string) int64 { return int64(len(k)+len(v)) + recordOverheadBytes }

func hashString(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// partitionOf returns the reduce partition MapTask routes key to. The
// modulo is taken in uint32, so the partition is the same on every
// platform.
func partitionOf(key string, numReducers int) int {
	return int(hashString(key) % uint32(numReducers))
}

func nLogN(n int64) float64 {
	if n <= 1 {
		return float64(n)
	}
	lg := 0.0
	for v := n; v > 1; v >>= 1 {
		lg++
	}
	return float64(n) * lg
}
