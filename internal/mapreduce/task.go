package mapreduce

import (
	"errors"
	"fmt"
	"slices"
	"strings"

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

// ReadRecords is the record reader: it parses a split's lines, the first
// at file offset first, into the map task's rows by itemset.ParseLines, the
// one .dat parser, so the rows share one backing array and each is capped
// at its own length. It returns the rows with the lines' text bytes, their
// newlines excluded. A line that does not parse fails the whole split,
// naming its offset.
func ReadRecords(lines []string, first int64) ([]itemset.Itemset, int64, error) {
	rows, err := itemset.ParseLines(lines)
	if err != nil {
		var le *itemset.LineError
		if errors.As(err, &le) {
			for _, l := range lines[:le.Index] {
				first += int64(len(l)) + 1
			}
			err = fmt.Errorf("record at offset %d: %w", first, le.Err)
		}
		return nil, 0, err
	}
	var text int64
	for _, l := range lines {
		text += int64(len(l))
	}
	return rows, text, nil
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

// MapTask is the body of map task t: read the split's rows and the bytes
// of text they were parsed from, map every row, clean up, charge the parse
// and the records, group the emitted records by key, route each key to its
// shuffle.HashKey partition, sort each partition into a run, fold each run
// through the combiner (nil for none) and charge the sort-and-spill. Every
// charge goes to led, in that order.
func MapTask(t int, mapper Mapper, combiner Reducer,
	read func() ([]itemset.Itemset, int64, error), reducers int, led *sim.Ledger) (*MapOutput, error) {
	rows, text, err := read()
	if err != nil {
		return nil, fmt.Errorf("task %d read: %w", t, err)
	}
	out := &MapOutput{
		Runs:         make([]Run, reducers),
		Bytes:        make([]int64, reducers),
		InputRecords: int64(len(rows)),
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
	for _, row := range rows {
		if err := mapper.Map(row, emit, led); err != nil {
			return nil, fmt.Errorf("task %d map: %w", t, err)
		}
	}
	if err := mapper.Cleanup(emit, led); err != nil {
		return nil, fmt.Errorf("task %d cleanup: %w", t, err)
	}
	// Parsing costs one op per byte of text, as Hadoop pays it on every
	// pass; reading and emitting one op per record.
	led.AddCPU(float64(text) + float64(len(rows)) + float64(out.MapRecords))
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
