package mapreduce

import (
	"fmt"
	"slices"
	"strings"

	"yafim/internal/dfs"
	"yafim/internal/itemset"
	"yafim/internal/shuffle"
	"yafim/internal/sim"
)

// The task bodies below are the one implementation of a map task and a
// reduce task. The Runner's stages call them with the task's metered
// ledger; the distributed runtime's workers call them with a throwaway one,
// reading their split from a real file and fetching runs over HTTP.
// Sharing the bodies is what makes a distributed job's output byte-equal to
// the sim's.

// Record is one input record of a map task: a .dat transaction line,
// parsed.
type Record struct {
	Offset int64 // the line's byte offset in its file, Hadoop's map key
	Len    int   // the line's length in bytes, without its newline
	// Items are the line's canonical items. They are read-only: they share
	// a backing array with the split's other records, and a worker maps a
	// cached split again in every later pass.
	Items itemset.Itemset
}

// ReadRecords parses a split's lines into records by itemset.AppendLine,
// the one .dat rule. Every record's items share one backing array, sized
// up front so it never moves, and each is capped at its own length, so an
// append to one cannot overwrite the next. A line that does not parse
// fails the whole split, naming its offset.
func ReadRecords(lines []dfs.Line) ([]Record, error) {
	fields := 0
	for _, l := range lines {
		fields += itemset.CountFields(l.Text)
	}
	items := make(itemset.Itemset, 0, fields) // every record's items, back to back
	recs := make([]Record, len(lines))
	for i, l := range lines {
		start := len(items)
		var err error
		if items, err = itemset.AppendLine(items, l.Text); err != nil {
			return nil, fmt.Errorf("record at offset %d: %w", l.Offset, err)
		}
		recs[i] = Record{Offset: l.Offset, Len: len(l.Text), Items: items[start:len(items):len(items)]}
	}
	return recs, nil
}

// Run is one map task's output for one reduce partition: keys strictly
// ascending, each key once with its values in emit order.
type Run = []shuffle.Pair[string, []string]

// MapOutput is one map task's partitioned, optionally combined output.
type MapOutput struct {
	Runs  []Run   // by reduce partition
	Bytes []int64 // spilled size of each run
	// InputRecords counts the records read, MapRecords those the mapper
	// emitted and CombineRecords those the combiner emitted (zero without
	// one).
	InputRecords, MapRecords, CombineRecords int64
}

// MapTask is the body of map task t: read the split's records, map every
// one, clean up, group the emitted records by key, route each key to its
// shuffle.HashKey partition, sort each partition into a run, fold each run
// through the combiner (nil for none) and charge the sort-and-spill. Every
// charge goes to led, in that order.
func MapTask(t int, mapper Mapper, combiner Reducer,
	read func() ([]Record, error), reducers int, led *sim.Ledger) (*MapOutput, error) {
	recs, err := read()
	if err != nil {
		return nil, fmt.Errorf("task %d read: %w", t, err)
	}
	out := &MapOutput{
		Runs:         make([]Run, reducers),
		Bytes:        make([]int64, reducers),
		InputRecords: int64(len(recs)),
	}
	var groups Run // one per distinct key, in first-emit order
	index := make(map[string]int)
	emit := func(k, v string) {
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, shuffle.Pair[string, []string]{Key: k})
		}
		groups[i].Value = append(groups[i].Value, v)
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
	for _, g := range groups {
		p := shuffle.HashKey(g.Key) % uint32(reducers)
		out.Runs[p] = append(out.Runs[p], g)
	}
	for _, run := range out.Runs {
		slices.SortFunc(run, func(a, b shuffle.Pair[string, []string]) int { return strings.Compare(a.Key, b.Key) })
	}

	if combiner != nil {
		var key string
		var vals, stray []string // the key's combined values; keys emitted under instead
		cemit := func(k, v string) {
			if k != key {
				stray = append(stray, k)
			}
			vals = append(vals, v)
			out.CombineRecords++
		}
		for i, run := range out.Runs {
			combined := make(Run, 0, len(run))
			for _, kv := range run {
				key, vals = kv.Key, nil
				if err := combiner.Reduce(kv.Key, kv.Value, cemit, led); err != nil {
					return nil, fmt.Errorf("task %d combine: %w", t, err)
				}
				if len(stray) > 0 { // this run would file it out of order, whichever reducer owns it
					return nil, fmt.Errorf("task %d combine: combiner emitted key %q while combining key %q",
						t, stray[0], key)
				}
				if len(vals) > 0 {
					combined = append(combined, shuffle.Pair[string, []string]{Key: key, Value: vals})
				}
				led.AddCPU(float64(len(kv.Value)))
			}
			out.Runs[i] = combined
		}
	}

	// Sort-and-spill: Hadoop sorts map output before writing it to local
	// disk; charge n log n comparisons plus the spill bytes.
	var records int64
	for i, run := range out.Runs {
		for _, kv := range run {
			for _, v := range kv.Value {
				out.Bytes[i] += pairBytes(kv.Key, v)
			}
			records += int64(len(kv.Value))
		}
	}
	led.AddCPU(nLogN(records))
	for _, n := range out.Bytes {
		led.AddDiskWrite(n)
	}
	return out, nil
}

// ReduceTask is the body of one reduce task: Merge takes each map task's
// run as it arrives, and Reduce merges the runs and reduces every key.
type ReduceTask struct {
	t       int
	reducer Reducer
	led     *sim.Ledger
	runs    []Run
	records int64
}

// NewReduceTask starts reduce task t with reducer, charging led.
func NewReduceTask(t int, reducer Reducer, led *sim.Ledger) *ReduceTask {
	return &ReduceTask{t: t, reducer: reducer, led: led}
}

// Merge takes one map task's run. Calls come in map-index order, so a key's
// values keep map order and, within a map, emit order. The run is only
// read: the sim hands a retried attempt the same stored map output.
func (rt *ReduceTask) Merge(run Run) {
	rt.runs = append(rt.runs, run)
	for _, kv := range run {
		rt.records += int64(len(kv.Value))
	}
}

// Reduce charges the merge sort of the fetched runs, merges them (the
// earlier map's values first) and reduces every key in ascending order. It
// returns the number of keys.
func (rt *ReduceTask) Reduce(emit Emit) (int64, error) {
	rt.led.AddCPU(nLogN(rt.records))
	m := shuffle.Merger[string, []string]{Combine: func(a, b []string) []string { return slices.Concat(a, b) }}
	merged := m.Merge(rt.runs)
	for _, kv := range merged {
		if err := rt.reducer.Reduce(kv.Key, kv.Value, emit, rt.led); err != nil {
			return 0, fmt.Errorf("reducer %d key %q: %w", rt.t, kv.Key, err)
		}
		rt.led.AddCPU(float64(len(kv.Value)))
	}
	return int64(len(merged)), nil
}

const recordOverheadBytes = 8 // per-record framing in spills and fetches

func pairBytes(k, v string) int64 { return int64(len(k)+len(v)) + recordOverheadBytes }

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
