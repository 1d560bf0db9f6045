package mapreduce

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"yafim/internal/chaos"
	"yafim/internal/dfs"
	"yafim/internal/itemset"
	"yafim/internal/shuffle"
	"yafim/internal/sim"
)

// fuzzProb folds an arbitrary float into a valid probability in [0, 1).
func fuzzProb(p float64) float64 {
	if math.IsNaN(p) || math.IsInf(p, 0) {
		return 0
	}
	return math.Abs(math.Mod(p, 1))
}

// FuzzChaosInvariant checks the runner's exactness guarantee over random
// seeds, input sizes and fault plans: whatever the plan injects — transient
// task failures, stragglers, shuffle-fetch and block-read failures, a
// mid-run node crash — the chaotic job must write exactly the fault-free
// output with the same record counters, and the same seed must reproduce the
// same makespan.
func FuzzChaosInvariant(f *testing.F) {
	f.Add(int64(7), 0.05, 0.02, 0.01, uint8(4), uint8(3), true)
	f.Add(int64(42), 0.5, 0.9, 0.3, uint8(1), uint8(1), false)
	f.Add(int64(-11), 1.0, 0.0, 1.0, uint8(16), uint8(6), true)
	f.Fuzz(func(t *testing.T, seed int64, taskP, fetchP, readP float64,
		factor, repeat uint8, crash bool) {
		content := strings.Repeat(corpus, 1+int(repeat)%8)
		want, wantCtrs, refRep, _ := runItemCountOn(t, content, nil)

		plan := &chaos.Plan{
			Seed:              seed,
			TaskFailProb:      fuzzProb(taskP),
			FetchFailProb:     fuzzProb(fetchP),
			BlockReadFailProb: fuzzProb(readP),
			Stragglers:        []chaos.Straggler{{Node: 0, Factor: 1 + float64(factor%8)}},
		}
		if crash {
			plan.Crash = &chaos.NodeCrash{Node: 1, At: refRep.Duration() / 3}
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("fuzz built an invalid plan: %v", err)
		}
		chaotic := func(r *Runner) {
			if err := r.SetChaos(plan); err != nil {
				t.Fatal(err)
			}
		}

		got, gotCtrs, rep1, _ := runItemCountOn(t, content, chaotic)
		if !outputsEqual(got, want) {
			t.Fatal("chaos changed the job output")
		}
		if *gotCtrs != *wantCtrs {
			t.Fatalf("chaos changed record counters:\nchaos: %+v\nclean: %+v", gotCtrs, wantCtrs)
		}

		got2, _, rep2, _ := runItemCountOn(t, content, chaotic)
		if !outputsEqual(got2, want) {
			t.Fatal("second chaotic run changed the job output")
		}
		if rep1.Duration() != rep2.Duration() {
			t.Fatalf("same seed diverged: %v vs %v", rep1.Duration(), rep2.Duration())
		}
	})
}

// kv builds one run record.
func kv(k string, vs ...string) shuffle.Pair[string, []string] {
	return shuffle.Pair[string, []string]{Key: k, Value: vs}
}

// fuzzKeys are the keys the task fuzzers draw from: few, so keys repeat
// within and across map tasks, and including the empty key and one with a
// space.
var fuzzKeys = []string{"the", "fox", "a", "", "zz", "a b", "fo"}

// byteMapper emits one record per item of each input record, keyed by
// fuzzKeys and valued by the item, charges a CPU op per byte of the line and
// snapshots the ledger after every call.
type byteMapper struct {
	cleanup bool
	snaps   *[]sim.Cost
}

func (m byteMapper) Map(rec Record, emit Emit, led *sim.Ledger) error {
	for _, it := range rec.Items {
		emit(fuzzKeys[int(it)%len(fuzzKeys)], strconv.Itoa(int(it)))
	}
	led.AddCPU(float64(rec.Len))
	*m.snaps = append(*m.snaps, led.Total())
	return nil
}

func (m byteMapper) Cleanup(emit Emit, led *sim.Ledger) error {
	if m.cleanup {
		emit(fuzzKeys[0], "7")
		emit(fuzzKeys[2], "11")
	}
	*m.snaps = append(*m.snaps, led.Total())
	return nil
}

// reduceCall is one Reduce call a recordingReducer saw, with the ledger
// before it.
type reduceCall struct {
	key    string
	values []string
	before sim.Cost
}

// recordingReducer logs every call, then reduces as kind says: 0 joins the
// values, 1 sums them, 2 emits two values per key.
type recordingReducer struct {
	kind  int
	calls *[]reduceCall
}

func (r recordingReducer) Reduce(key string, values []string, emit Emit, led *sim.Ledger) error {
	*r.calls = append(*r.calls, reduceCall{key, slices.Clone(values), led.Total()})
	switch r.kind {
	case 1:
		return sumReducer{}.Reduce(key, values, emit, led)
	case 2:
		emit(key, values[len(values)-1])
		emit(key, strconv.Itoa(len(values)))
	default:
		emit(key, strings.Join(values, ","))
	}
	return nil
}

// mapTaskTrace is everything one job's map and reduce task bodies show from
// outside, for the runs engine or the reference.
type mapTaskTrace struct {
	runs             [][]Run // [map][reducer]
	bytes            [][]int64
	records          [][3]int64 // input, map, combine
	mapSnaps         [][]sim.Cost
	mapCosts         []sim.Cost
	combineCalls     []reduceCall // sorted by key: the reference combines in map order
	reduceCalls      [][]reduceCall
	reduceOut        [][]string
	reduceKeys       []int64
	reduceCosts      []sim.Cost
	reduceCallsRetry [][]reduceCall
	reduceCostsRetry []sim.Cost
}

// splitRecords cuts chunk into records at every byte divisible by 7, each
// holding its line's bytes as items, in order and with repeats, so a Map
// call's emits are as arbitrary as the bytes.
func splitRecords(chunk []byte) []Record {
	var recs []Record
	start := 0
	cut := func(end int) {
		items := make([]itemset.Item, 0, end-start)
		for _, b := range chunk[start:end] {
			items = append(items, itemset.Item(b))
		}
		recs = append(recs, Record{Offset: int64(start), Len: end - start, Items: items[:len(items):len(items)]})
	}
	for i, b := range chunk {
		if b%7 == 0 {
			cut(i)
			start = i + 1
		}
	}
	cut(len(chunk))
	return recs
}

// traceTasks runs maps map tasks over contiguous chunks of data and then
// every reduce task twice over their stored output, through the runs
// engine (ref false) or the reference.
func traceTasks(t *testing.T, ref bool, data []byte, maps, reducers, combine int, cleanup bool) mapTaskTrace {
	t.Helper()
	var tr mapTaskTrace
	var combineCalls []reduceCall
	refOuts := make([]*refMapOutput, maps)
	for m := 0; m < maps; m++ {
		recs := splitRecords(data[m*len(data)/maps : (m+1)*len(data)/maps])
		var snaps []sim.Cost
		mapper := byteMapper{cleanup: cleanup, snaps: &snaps}
		var combiner Reducer
		if combine > 0 {
			combiner = recordingReducer{kind: combine, calls: &combineCalls}
		}
		read := func() ([]Record, error) { return recs, nil }
		led := new(sim.Ledger)
		if ref {
			out, err := refMapTask(m, mapper, combiner, read, reducers, led)
			if err != nil {
				t.Fatal(err)
			}
			refOuts[m] = out
			runs := make([]Run, reducers)
			for p, part := range out.Partitions {
				runs[p] = refRun(part)
			}
			tr.runs = append(tr.runs, runs)
			tr.bytes = append(tr.bytes, out.Bytes)
			tr.records = append(tr.records, [3]int64{out.InputRecords, out.MapRecords, out.CombineRecords})
		} else {
			out, err := MapTask(m, mapper, combiner, read, reducers, led)
			if err != nil {
				t.Fatal(err)
			}
			tr.runs = append(tr.runs, out.Runs)
			tr.bytes = append(tr.bytes, out.Bytes)
			tr.records = append(tr.records, [3]int64{out.InputRecords, out.MapRecords, out.CombineRecords})
		}
		tr.mapSnaps = append(tr.mapSnaps, snaps)
		tr.mapCosts = append(tr.mapCosts, led.Total())
	}
	sort.SliceStable(combineCalls, func(i, j int) bool { return combineCalls[i].key < combineCalls[j].key })
	for i := range combineCalls {
		combineCalls[i].before = sim.Cost{} // taken in map order by the reference
	}
	tr.combineCalls = combineCalls

	reduce := func(p int) ([]reduceCall, []string, int64, sim.Cost) {
		var calls []reduceCall
		var out []string
		emit := func(k, v string) { out = append(out, k+"="+v) }
		reducer := recordingReducer{calls: &calls}
		led := new(sim.Ledger)
		var n int64
		var err error
		if ref {
			rt := newRefReduceTask(p, reducer, led)
			for _, o := range refOuts {
				rt.Merge(o.Partitions[p])
			}
			n, err = rt.Reduce(emit)
		} else {
			rt := NewReduceTask(p, reducer, led)
			for _, runs := range tr.runs {
				rt.Merge(runs[p])
			}
			n, err = rt.Reduce(emit)
		}
		if err != nil {
			t.Fatal(err)
		}
		return calls, out, n, led.Total()
	}
	// A reduce must not write into stored map output, not even past a value
	// list's length: a retried attempt reads the same runs again.
	stored := func() [][]string {
		var all [][]string
		for _, runs := range tr.runs {
			for _, run := range runs {
				for _, r := range run {
					all = append(all, slices.Clone(r.Value[:cap(r.Value)]))
				}
			}
		}
		return all
	}
	before := stored()
	for p := 0; p < reducers; p++ {
		calls, out, n, cost := reduce(p)
		tr.reduceCalls = append(tr.reduceCalls, calls)
		tr.reduceOut = append(tr.reduceOut, out)
		tr.reduceKeys = append(tr.reduceKeys, n)
		tr.reduceCosts = append(tr.reduceCosts, cost)
	}
	// A retried reduce attempt reads the same stored map output again.
	for p := 0; p < reducers; p++ {
		calls, _, _, cost := reduce(p)
		tr.reduceCallsRetry = append(tr.reduceCallsRetry, calls)
		tr.reduceCostsRetry = append(tr.reduceCostsRetry, cost)
	}
	if !reflect.DeepEqual(stored(), before) {
		t.Fatal("reduce wrote into stored map output")
	}
	for m := range tr.runs {
		for p := range tr.runs[m] {
			if len(tr.runs[m][p]) == 0 {
				tr.runs[m][p] = nil
			}
		}
	}
	return tr
}

// FuzzMapTaskParity locks MapTask and ReduceTask to the map-based reference
// on arbitrary emit sequences: few keys with many repeats, one to three map
// tasks, 1-8 reducers, and no combiner, a summing one or one that emits two
// values per key. Runs, spill bytes, record counters, every ledger snapshot
// and each reducer's (key, values) sequence must agree, and a second reduce
// over the same stored runs must see the same.
func FuzzMapTaskParity(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(0), false, []byte("the quick brown fox jumps over the lazy dog"))
	f.Add(uint8(1), uint8(7), uint8(1), true, []byte{1, 2, 3, 1, 2, 3, 7, 1, 1, 1, 14, 9, 9, 9, 9})
	f.Add(uint8(2), uint8(0), uint8(2), false, []byte("aaaaaaaaaaaaaaaaaaaabbbbbbbbbbbbbbbbbbbbbbbbbbb"))
	f.Add(uint8(2), uint8(3), uint8(1), true, []byte{})
	// Map 0's five "fox" values leave room in their slice for map 1's one.
	f.Add(uint8(1), uint8(0), uint8(0), false, []byte{1, 1, 1, 1, 1, 1, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, maps, reducers, combine uint8, cleanup bool, data []byte) {
		nMaps, nReducers, kind := 1+int(maps)%3, 1+int(reducers)%8, int(combine)%3
		got := traceTasks(t, false, data, nMaps, nReducers, kind, cleanup)
		want := traceTasks(t, true, data, nMaps, nReducers, kind, cleanup)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("runs engine diverged from the reference:\n got %+v\nwant %+v", got, want)
		}
	})
}

// FuzzParseRun checks the run frame: no input panics the parser, a frame it
// accepts is a valid run that re-encodes to the same bytes, and a run built
// from the input round-trips through AppendRun and ParseRun.
func FuzzParseRun(f *testing.F) {
	f.Add([]byte("fox\t1\nfox\t2\nthe\t3\n"))
	f.Add([]byte("\t\na\tb\tc\n"))
	f.Add([]byte("no-tab-here\n"))
	f.Add([]byte("the\t1\nfox\t1\n"))
	f.Add([]byte("fox\t1\nthe\t1\nfox\t1\n"))
	f.Add([]byte("fox\t1"))
	f.Add([]byte("\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if run, err := ParseRun(data); err == nil {
			for i, r := range run {
				if len(r.Value) == 0 || (i > 0 && r.Key <= run[i-1].Key) {
					t.Fatalf("accepted frame %q parsed to an invalid run %v", data, run)
				}
			}
			if again := AppendRun(nil, run); !bytes.Equal(again, data) {
				t.Fatalf("frame %q re-encodes to %q", data, again)
			}
		}

		// A run from the input: keys from fuzzKeys, values from the
		// bytes with their newlines dropped (a value may hold a tab).
		grouped := map[string][]string{}
		for i := 0; i+1 < len(data); i += 2 {
			k := fuzzKeys[int(data[i])%len(fuzzKeys)]
			grouped[k] = append(grouped[k], strings.ReplaceAll(string(data[i:i+2]), "\n", ""))
		}
		var run Run
		for k, vs := range grouped {
			run = append(run, kv(k, vs...))
		}
		slices.SortFunc(run, func(a, b shuffle.Pair[string, []string]) int { return strings.Compare(a.Key, b.Key) })
		frame := AppendRun([]byte("prefix"), run)
		back, err := ParseRun(frame[len("prefix"):])
		if err != nil {
			t.Fatalf("run %v: frame %q does not parse: %v", run, frame, err)
		}
		if len(back) != len(run) || (len(run) > 0 && !reflect.DeepEqual(back, run)) {
			t.Fatalf("run %v round-tripped to %v", run, back)
		}
	})
}

// FuzzReadRecords checks the record reader against itemset.ParseLine over
// fuzz bytes cut into lines, as a split starting at byte base yields them:
// each record holds its line's offset, length and parsed items, its items
// are capped at their length so an append cannot overwrite the next
// record's, and a line ParseLine rejects fails the whole split with an
// error naming the first such line's offset.
func FuzzReadRecords(f *testing.F) {
	f.Add(uint32(0), []byte("1 2 3\n3 1 3\n\n7\t7 2\r\n"))
	f.Add(uint32(4096), []byte("1 2\n1 x\n3\n"))
	f.Add(uint32(9), []byte("2147483647 0\n2147483648\n"))
	f.Add(uint32(0), []byte("5 4 3 2 1\n\n\n"))
	f.Add(uint32(1), []byte{})
	f.Fuzz(func(t *testing.T, base uint32, data []byte) {
		var lines []dfs.Line
		start := 0
		for i := 0; i <= len(data); i++ {
			if i == len(data) || data[i] == '\n' {
				lines = append(lines, dfs.Line{Offset: int64(base) + int64(start), Text: string(data[start:i])})
				start = i + 1
			}
		}
		recs, err := ReadRecords(lines)
		for _, l := range lines {
			if _, perr := itemset.ParseLine(l.Text); perr != nil {
				if err == nil || recs != nil {
					t.Fatalf("line %q at %d does not parse (%v), yet the split read as %v, %v",
						l.Text, l.Offset, perr, recs, err)
				}
				if want := fmt.Sprintf("offset %d:", l.Offset); !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name the bad line's %q", err, want)
				}
				return
			}
		}
		if err != nil {
			t.Fatalf("every line parses, yet the split failed: %v", err)
		}
		if len(recs) != len(lines) {
			t.Fatalf("%d lines read as %d records", len(lines), len(recs))
		}
		for i, r := range recs {
			want, _ := itemset.ParseLine(lines[i].Text)
			if r.Offset != lines[i].Offset || r.Len != len(lines[i].Text) || !r.Items.Equal(want) {
				t.Fatalf("record %d = %+v, want offset %d, length %d, items %v",
					i, r, lines[i].Offset, len(lines[i].Text), want)
			}
			if cap(r.Items) != len(r.Items) {
				t.Fatalf("record %d's items have capacity %d past their length %d", i, cap(r.Items), len(r.Items))
			}
		}
	})
}
