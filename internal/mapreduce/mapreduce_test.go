package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"yafim/internal/cluster"
	"yafim/internal/dfs"
	"yafim/internal/itemset"
	"yafim/internal/sim"
	"yafim/internal/vcluster"
)

// itemCountMapper is the canonical example job used by the engine tests:
// word count over transactions, counting items.
type itemCountMapper struct{ failOn itemset.Item }

func (m *itemCountMapper) Cleanup(Emit, *sim.Ledger) error { return nil }

func (m *itemCountMapper) Map(items itemset.Itemset, emit Emit, _ *sim.Ledger) error {
	for _, it := range items {
		if it == m.failOn {
			return fmt.Errorf("poisoned item %d", it)
		}
		emit(strconv.Itoa(int(it)), "1")
	}
	return nil
}

type sumReducer struct{}

func (sumReducer) Reduce(key string, values []string, emit Emit, _ *sim.Ledger) error {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		total += n
	}
	emit(key, strconv.Itoa(total))
	return nil
}

func setupFS(t *testing.T, blockSize int64, content string) *dfs.FileSystem {
	t.Helper()
	fs := dfs.New(4, dfs.WithBlockSize(blockSize), dfs.WithReplication(2))
	if err := fs.WriteFile("/in/data.txt", []byte(content), nil); err != nil {
		t.Fatal(err)
	}
	return fs
}

func itemCountJob(combiner bool) Job {
	j := Job{
		Name:      "itemcount",
		Input:     []string{"/in/data.txt"},
		OutputDir: "/out/wc",
		Tasks: Tasks{
			NewMapper:  func() Mapper { return &itemCountMapper{} },
			NewReducer: func() Reducer { return sumReducer{} },
		},
		NumReducers: 3,
	}
	if combiner {
		j.NewCombiner = func() Reducer { return sumReducer{} }
	}
	return j
}

// corpus is "the quick brown fox / jumps over the lazy dog / the fox
// again" with each word replaced by an item id as wide as the word, so the
// lines fall on the same byte offsets: the=101, quick=20202, brown=30303,
// fox=404, jumps=50505, over=6060, lazy=7070, dog=808, again=90909.
const corpus = "101 20202 30303 404\n50505 6060 101 7070 808\n101 404 90909\n"

func wantCounts() map[string]string {
	return map[string]string{
		"101": "3", "404": "2", "20202": "1", "30303": "1", "50505": "1",
		"6060": "1", "7070": "1", "808": "1", "90909": "1",
	}
}

func TestWordCount(t *testing.T) {
	for _, combiner := range []bool{false, true} {
		t.Run(fmt.Sprintf("combiner=%v", combiner), func(t *testing.T) {
			fs := setupFS(t, 16, corpus) // tiny blocks: several map tasks
			r, err := NewRunner(fs, cluster.Local())
			if err != nil {
				t.Fatal(err)
			}
			rep, counters, err := r.RunContext(context.Background(), itemCountJob(combiner))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ReadOutput(fs, "/out/wc", nil)
			if err != nil {
				t.Fatal(err)
			}
			gm := map[string]string{}
			for _, kv := range got {
				if _, dup := gm[kv.Key]; dup {
					t.Fatalf("key %q appears in two parts", kv.Key)
				}
				gm[kv.Key] = kv.Value
			}
			want := wantCounts()
			if len(gm) != len(want) {
				t.Fatalf("got %v", gm)
			}
			for k, v := range want {
				if gm[k] != v {
					t.Errorf("count[%q] = %q, want %q", k, gm[k], v)
				}
			}
			if counters.MapInputRecords != 3 {
				t.Errorf("MapInputRecords = %d", counters.MapInputRecords)
			}
			if counters.MapOutputRecords != 12 {
				t.Errorf("MapOutputRecords = %d", counters.MapOutputRecords)
			}
			if counters.ReduceInputGroups != 9 || counters.ReduceOutputRecords != 9 {
				t.Errorf("reduce counters = %+v", counters)
			}
			if combiner && counters.CombineOutputRecs > counters.MapOutputRecords {
				// With 16-byte splits each task sees distinct items, so the
				// combiner may not shrink anything, but must never grow it.
				t.Errorf("combiner grew output: %+v", counters)
			}
			if len(rep.Stages) != 2 {
				t.Fatalf("stages = %d", len(rep.Stages))
			}
			if rep.Overhead < r.Config().JobStartup {
				t.Errorf("job overhead %v below startup", rep.Overhead)
			}
		})
	}
}

// The part files take their replicas from the DFS's round-robin cursor in
// partition order, whatever order the reduce tasks finish in, so every run
// of a seed leaves the same blocks on each node for a crash to take.
func TestReduceCommitsInPartitionOrder(t *testing.T) {
	fs := setupFS(t, 16, corpus)
	r, err := NewRunner(fs, cluster.Local())
	if err != nil {
		t.Fatal(err)
	}
	job := itemCountJob(true)
	job.NumReducers = 32
	if _, _, err := r.RunContext(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	var prev []int
	for p := 0; p < job.NumReducers; p++ {
		splits, err := fs.Splits(fmt.Sprintf("%s/part-r-%05d", job.OutputDir, p))
		if err != nil {
			t.Fatal(err)
		}
		first := splits[0].Locations
		if prev != nil && first[0] != (prev[len(prev)-1]+1)%4 { // setupFS's 4 nodes
			t.Fatalf("part %d starts on %v right after part %d ended on %v", p, first, p-1, prev)
		}
		prev = splits[len(splits)-1].Locations
	}
}

// rekeyCombiner sums like sumReducer but files the from key's total under
// the to key.
type rekeyCombiner struct{ from, to string }

func (c rekeyCombiner) Reduce(key string, values []string, emit Emit, led *sim.Ledger) error {
	if key == c.from {
		key = c.to
	}
	return sumReducer{}.Reduce(key, values, emit, led)
}

// A combiner that emits under another key would file that record in the
// partition being combined, whichever reducer owns the key, and split the
// key's output across part files. The map task fails instead, naming both
// keys.
func TestCombinerMustKeepItsKey(t *testing.T) {
	fs := setupFS(t, 1<<20, corpus)
	r, err := NewRunner(fs, cluster.Local())
	if err != nil {
		t.Fatal(err)
	}
	job := itemCountJob(true)
	job.NewCombiner = func() Reducer { return rekeyCombiner{from: "101", to: "404"} }
	_, _, err = r.RunContext(context.Background(), job)
	if err == nil {
		out, _ := ReadOutput(fs, "/out/wc", nil)
		t.Fatalf("job with a re-keying combiner succeeded, writing %v", out)
	}
	if msg := err.Error(); !strings.Contains(msg, `"404"`) || !strings.Contains(msg, `"101"`) {
		t.Fatalf("error %q does not name both keys", msg)
	}
}

func TestCombinerReducesShuffleBytes(t *testing.T) {
	run := func(combiner bool) sim.Cost {
		fs := setupFS(t, 1024, strings.Repeat(corpus, 20))
		r, err := NewRunner(fs, cluster.Local())
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := r.RunContext(context.Background(), itemCountJob(combiner))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Stages[1].Total // reduce stage: shuffle fetch costs
	}
	plain := run(false)
	combined := run(true)
	if combined.Net >= plain.Net {
		t.Fatalf("combiner did not cut shuffle traffic: %d vs %d", combined.Net, plain.Net)
	}
}

func TestJobChargesInputAndOutputIO(t *testing.T) {
	fs := setupFS(t, 1024, corpus)
	r, err := NewRunner(fs, cluster.Local())
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := r.RunContext(context.Background(), itemCountJob(false))
	if err != nil {
		t.Fatal(err)
	}
	mapCost := rep.Stages[0].Total
	if mapCost.DiskRead < int64(len(corpus)) {
		t.Errorf("map stage read %d bytes, want >= %d", mapCost.DiskRead, len(corpus))
	}
	if mapCost.DiskWrite == 0 {
		t.Error("map spill not charged")
	}
	redCost := rep.Stages[1].Total
	// Output commit pays replication: 2x disk write plus 1x network.
	if redCost.DiskWrite == 0 || redCost.Net == 0 {
		t.Errorf("reduce commit costs missing: %+v", redCost)
	}
}

func TestDistributedCache(t *testing.T) {
	fs := setupFS(t, 1024, corpus)
	payload := strings.Repeat("z", 1000)
	if err := fs.WriteFile("/cache/side", []byte(payload), nil); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(fs, cluster.Local())
	if err != nil {
		t.Fatal(err)
	}
	job := itemCountJob(false)
	job.CacheFiles = []string{"/cache/side"}
	rep, _, err := r.RunContext(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := NewRunnerMust(t, cluster.Local(), fs).RunContext(context.Background(), itemCountJob(false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overhead <= plain.Overhead {
		t.Fatalf("cache localisation time missing: %v vs %v", rep.Overhead, plain.Overhead)
	}
}

func NewRunnerMust(t *testing.T, cfg cluster.Config, fs *dfs.FileSystem) *Runner {
	t.Helper()
	r, err := NewRunner(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMapperErrorFailsJob(t *testing.T) {
	fs := setupFS(t, 1024, corpus)
	r := NewRunnerMust(t, cluster.Local(), fs)
	job := itemCountJob(false)
	job.NewMapper = func() Mapper { return &itemCountMapper{failOn: 7070} }
	if _, _, err := r.RunContext(context.Background(), job); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("err = %v", err)
	}
}

type badReducer struct{}

func (badReducer) Reduce(key string, _ []string, _ Emit, _ *sim.Ledger) error {
	if key == "404" {
		return errors.New("item 404 rejected")
	}
	return nil
}

func TestReducerErrorFailsJob(t *testing.T) {
	fs := setupFS(t, 1024, corpus)
	r := NewRunnerMust(t, cluster.Local(), fs)
	job := itemCountJob(false)
	job.NewReducer = func() Reducer { return badReducer{} }
	if _, _, err := r.RunContext(context.Background(), job); err == nil || !strings.Contains(err.Error(), "item 404 rejected") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateJob(t *testing.T) {
	fs := setupFS(t, 1024, corpus)
	r := NewRunnerMust(t, cluster.Local(), fs)
	base := itemCountJob(false)

	for name, mutate := range map[string]func(*Job){
		"no name":     func(j *Job) { j.Name = "" },
		"no input":    func(j *Job) { j.Input = nil },
		"no output":   func(j *Job) { j.OutputDir = "" },
		"no mapper":   func(j *Job) { j.NewMapper = nil },
		"no reducer":  func(j *Job) { j.NewReducer = nil },
		"no reducers": func(j *Job) { j.NumReducers = 0 },
	} {
		j := base
		mutate(&j)
		if _, _, err := r.RunContext(context.Background(), j); err == nil {
			t.Errorf("%s: job ran", name)
		}
	}
	j := base
	j.Input = []string{"/does/not/exist"}
	if _, _, err := r.RunContext(context.Background(), j); err == nil {
		t.Error("missing input: job ran")
	}
}

func TestReduceKeysProcessedInSortedOrder(t *testing.T) {
	// The mapper emits 4, 30, 100 in item order, which is not key order.
	fs := setupFS(t, 1024, "30 4 100\n")
	r := NewRunnerMust(t, cluster.Local(), fs)
	var order []string
	job := itemCountJob(false)
	job.NumReducers = 1
	job.NewReducer = func() Reducer { return &orderRecorder{order: &order} }
	if _, _, err := r.RunContext(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(order) {
		t.Fatalf("reduce order = %v", order)
	}
}

type orderRecorder struct{ order *[]string }

func (r *orderRecorder) Reduce(key string, _ []string, emit Emit, _ *sim.Ledger) error {
	*r.order = append(*r.order, key)
	emit(key, "ok")
	return nil
}

func TestEveryJobPaysStartup(t *testing.T) {
	fs := setupFS(t, 1024, corpus)
	r := NewRunnerMust(t, cluster.PaperHadoop(), fs)
	for i := 0; i < 3; i++ {
		CleanOutput(fs, "/out/wc")
		if _, _, err := r.RunContext(context.Background(), itemCountJob(false)); err != nil {
			t.Fatal(err)
		}
	}
	reps := r.Reports()
	if len(reps) != 3 {
		t.Fatalf("reports = %d", len(reps))
	}
	for i, rep := range reps {
		if rep.Overhead < cluster.PaperHadoop().JobStartup {
			t.Errorf("job %d overhead %v below startup — the iterative penalty is the point", i, rep.Overhead)
		}
	}
	if r.TotalDuration() < 3*cluster.PaperHadoop().JobStartup {
		t.Errorf("total duration %v too small", r.TotalDuration())
	}
}

func TestJobTimingDeterministic(t *testing.T) {
	run := func() string {
		fs := setupFS(t, 16, strings.Repeat(corpus, 5))
		r := NewRunnerMust(t, cluster.PaperHadoop(), fs)
		rep, _, err := r.RunContext(context.Background(), itemCountJob(true))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Duration().String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("durations differ: %s vs %s", a, b)
	}
}

func TestReadOutputErrors(t *testing.T) {
	fs := dfs.New(2)
	if _, err := ReadOutput(fs, "/none", nil); err == nil {
		t.Error("ReadOutput with no parts succeeded")
	}
	if err := fs.WriteFile("/bad/part-r-00000", []byte("no-tab-here\n"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadOutput(fs, "/bad", nil); err == nil {
		t.Error("malformed record accepted")
	}
}

// errInjected is the task failure the tests inject through task code.
var errInjected = errors.New("mapreduce test: injected task failure")

// failPlan schedules failures for the task code of flakyJob, keyed by the
// byte offset of a map record (int64) or by a reduce key (string).
type failPlan struct {
	mu   sync.Mutex
	left map[any]int
}

// arm makes the next n map calls on a record holding an item, or reduce
// calls on a key, fail.
func (f *failPlan) arm(at any, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.left == nil {
		f.left = make(map[any]int)
	}
	f.left[at] += n
}

// fail reports whether this call on at fails, using up one armed failure
// when it does.
func (f *failPlan) fail(at any) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.left[at] > 0 {
		f.left[at]--
		return true
	}
	return false
}

type flakyMapper struct {
	itemCountMapper
	plan *failPlan
}

func (m *flakyMapper) Map(items itemset.Itemset, emit Emit, led *sim.Ledger) error {
	for _, it := range items {
		if m.plan.fail(it) {
			return errInjected
		}
	}
	return m.itemCountMapper.Map(items, emit, led)
}

type flakyReducer struct {
	sumReducer
	plan *failPlan
}

func (r flakyReducer) Reduce(key string, values []string, emit Emit, led *sim.Ledger) error {
	if r.plan.fail(key) {
		return errInjected
	}
	return r.sumReducer.Reduce(key, values, emit, led)
}

// flakyJob is the item-count job whose map and reduce calls fail with
// errInjected as plan arms them. A map task fails when it reaches a record
// holding an armed item, so arming an item only one split's records hold
// fails that split's task.
func flakyJob(plan *failPlan) Job {
	j := itemCountJob(false)
	j.NewMapper = func() Mapper { return &flakyMapper{plan: plan} }
	j.NewReducer = func() Reducer { return flakyReducer{plan: plan} }
	return j
}

func TestTaskRetryOnInjectedFailure(t *testing.T) {
	fs := setupFS(t, 16, corpus) // several map tasks
	r := NewRunnerMust(t, cluster.Local(), fs)
	var plan failPlan
	plan.arm(itemset.Item(20202), 2) // two transient failures of map task 0, then success
	plan.arm("404", 1)               // one reducer hiccup
	_, counters, err := r.RunContext(context.Background(), flakyJob(&plan))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadOutput(fs, "/out/wc", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wantCounts()) {
		t.Fatalf("retries corrupted output: %v", got)
	}
	if counters.MapInputRecords != 3 {
		t.Fatalf("retries double-counted records: %+v", counters)
	}
}

func TestTaskFailsAfterMaxAttempts(t *testing.T) {
	fs := setupFS(t, 1024, corpus)
	r := NewRunnerMust(t, cluster.Local(), fs)
	var plan failPlan
	plan.arm(itemset.Item(20202), vcluster.MaxTaskAttempts)
	_, _, err := r.RunContext(context.Background(), flakyJob(&plan))
	if err == nil {
		t.Fatal("job succeeded despite exhausting all attempts")
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("error does not wrap the injected failure: %v", err)
	}
}
