package dist

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"yafim/internal/cluster"
	"yafim/internal/dfs"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/obs"
	"yafim/internal/sim"
)

// wordMapper and wordSum form the test job type: classic word count over
// transactions, counting items, enough to exercise splits, partitioning,
// combining and the shuffle.
type wordMapper struct{}

func (wordMapper) Cleanup(mapreduce.Emit, *sim.Ledger) error { return nil }
func (wordMapper) Map(items itemset.Itemset, emit mapreduce.Emit, _ *sim.Ledger) error {
	for _, it := range items {
		emit(strconv.Itoa(int(it)), "1")
	}
	return nil
}

type wordSum struct{}

func (wordSum) Reduce(key string, values []string, emit mapreduce.Emit, _ *sim.Ledger) error {
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

var registerWordCount sync.Once

func wordCountType(t *testing.T) string {
	t.Helper()
	registerWordCount.Do(func() {
		RegisterJobType("test-wordcount", func([]byte, mapreduce.CacheFiles) (mapreduce.Tasks, error) {
			return mapreduce.Tasks{
				NewMapper:   func() mapreduce.Mapper { return wordMapper{} },
				NewCombiner: func() mapreduce.Reducer { return wordSum{} },
				NewReducer:  func() mapreduce.Reducer { return wordSum{} },
			}, nil
		})
	})
	return "test-wordcount"
}

// writeCorpus writes a deterministic multi-line input file and returns its
// path. Repetitive but not uniform, so counts differ across items. The
// items are as wide as the words tea, coffee, water, juice and milk.
func writeCorpus(t *testing.T, lines int) string {
	t.Helper()
	var sb strings.Builder
	words := []string{"101", "202020", "30303", "40404", "5050"}
	for i := 0; i < lines; i++ {
		for j := 0; j <= i%len(words); j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(words[(i+j)%len(words)])
		}
		sb.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "corpus.txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// fastTuning is a real-time protocol configuration quick enough for tests.
func fastTuning() Tuning {
	return Tuning{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  500 * time.Millisecond,
		LeaseDeadline:     10 * time.Second,
		MaxWorkers:        8,
		MaxTaskAttempts:   8,
		BlacklistAfter:    3,
		BlacklistBase:     200 * time.Millisecond,
	}
}

// startWorkers runs n in-process workers against the master and returns a
// stop function that drains them.
// simExec runs spec on the simulator: its input file is staged into a fresh
// four-node DFS under the same path and the job goes through Local.
func simExec(t *testing.T, spec *JobSpec) *JobOutput {
	t.Helper()
	data, err := os.ReadFile(spec.InputPath)
	if err != nil {
		t.Fatal(err)
	}
	fs := dfs.New(4)
	if err := fs.WriteFile(spec.InputPath, data, nil); err != nil {
		t.Fatal(err)
	}
	runner, err := mapreduce.NewRunner(fs, cluster.Local())
	if err != nil {
		t.Fatal(err)
	}
	out, err := NewLocal(runner, fs).ExecJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func startWorkers(t *testing.T, masterURL string, n int) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunWorker(ctx, WorkerOptions{MasterURL: masterURL}); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	return cancel
}

func TestMasterWorkersMatchLocalOracle(t *testing.T) {
	typ := wordCountType(t)
	input := writeCorpus(t, 200)
	spec := func() *JobSpec {
		return &JobSpec{
			Name: "wc", Type: typ, InputPath: input,
			NumMaps: 4, NumReducers: 3,
		}
	}

	oracle := simExec(t, spec())
	if oracle.MapInputRecords != 200 {
		t.Fatalf("oracle consumed %d records, want 200", oracle.MapInputRecords)
	}

	log := obs.NewEventLog(nil)
	master, err := StartMaster(MasterOptions{Addr: "127.0.0.1:0", Tuning: fastTuning(), Log: log, Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	startWorkers(t, master.URL(), 2)
	// Seven small tasks can all go to whichever worker registers first.
	for deadline := time.Now().Add(10 * time.Second); master.LiveWorkers() < 2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for both workers to register")
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := master.ExecJob(ctx, spec())
	if err != nil {
		t.Fatal(err)
	}

	if got.MapInputRecords != oracle.MapInputRecords {
		t.Errorf("input records: dist %d, oracle %d", got.MapInputRecords, oracle.MapInputRecords)
	}
	if !reflect.DeepEqual(got.KVs, oracle.KVs) {
		t.Errorf("output diverges from oracle:\n dist   %v\n oracle %v", got.KVs, oracle.KVs)
	}

	// The journal must show both workers registering and real task flow.
	events := log.Events()
	registers, completions := 0, 0
	for _, ev := range events {
		switch ev.Event {
		case "worker_register":
			registers++
		case "task_complete":
			completions++
		}
	}
	if registers != 2 {
		t.Errorf("journal shows %d registrations, want 2", registers)
	}
	if completions != 4+3 {
		t.Errorf("journal shows %d completions, want 7", completions)
	}
}

func TestMasterSequentialJobs(t *testing.T) {
	typ := wordCountType(t)
	input := writeCorpus(t, 50)
	master, err := StartMaster(MasterOptions{Addr: "127.0.0.1:0", Tuning: fastTuning()})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	startWorkers(t, master.URL(), 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first *JobOutput
	for i := 0; i < 3; i++ {
		out, err := master.ExecJob(ctx, &JobSpec{
			Name: fmt.Sprintf("wc-%d", i), Type: typ, InputPath: input,
			NumMaps: 2, NumReducers: 2,
		})
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		out.Duration = 0
		if first == nil {
			first = out
		} else if !reflect.DeepEqual(out, first) {
			t.Fatalf("job %d output differs from job 0", i)
		}
	}
}

func TestMasterExecJobCanceled(t *testing.T) {
	typ := wordCountType(t)
	input := writeCorpus(t, 50)
	master, err := StartMaster(MasterOptions{Addr: "127.0.0.1:0", Tuning: fastTuning()})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	// No workers: the job can never finish; cancellation must unblock.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = master.ExecJob(ctx, &JobSpec{
		Name: "wc", Type: typ, InputPath: input, NumMaps: 2, NumReducers: 2,
	})
	if err == nil {
		t.Fatal("canceled job returned no error")
	}
}

func TestSplitFileRoundTrip(t *testing.T) {
	input := writeCorpus(t, 100)
	data, err := os.ReadFile(input)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	for _, n := range []int{1, 2, 3, 7, 16} {
		splits, err := splitFile(input, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(splits) < n {
			t.Fatalf("splitFile(%d) produced %d splits", n, len(splits))
		}
		var got []string
		var total int64
		for _, s := range splits {
			total += s.Length
			lines, off, err := readSplit(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range lines {
				if data[off] != l[0] {
					t.Fatalf("split %v: line %q claims offset %d", s, l, off)
				}
				got = append(got, l)
				off += int64(len(l)) + 1
			}
		}
		if total != int64(len(data)) {
			t.Fatalf("splits cover %d bytes of %d", total, len(data))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: %d lines read, want %d, or order broken", n, len(got), len(want))
		}
	}
}

func TestReadSplitUnterminatedFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "noeol.txt")
	if err := os.WriteFile(path, []byte("alpha\nbeta\ngamma"), 0o644); err != nil {
		t.Fatal(err)
	}
	splits, err := splitFile(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range splits {
		lines, _, err := readSplit(s)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, lines...)
	}
	if !reflect.DeepEqual(got, []string{"alpha", "beta", "gamma"}) {
		t.Fatalf("got %v", got)
	}
}
