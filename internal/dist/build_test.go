package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yafim/internal/cluster"
	"yafim/internal/dfs"
	"yafim/internal/mapreduce"
	"yafim/internal/sim"
)

// buildLog records what the test-counted job type's builder and factories
// were called with. Each test passes its own name as the job's params and
// reads its own log.
type buildLog struct {
	builds, mappers, reducers atomic.Int64

	mu     sync.Mutex
	caches []mapreduce.CacheFiles
}

var (
	registerCounted sync.Once
	buildLogs       sync.Map // params -> *buildLog
)

// taggedMapper is word count's mapper filing every item under tag.
type taggedMapper struct{ tag string }

func (taggedMapper) Cleanup(mapreduce.Emit, *sim.Ledger) error { return nil }
func (m taggedMapper) Map(rec mapreduce.Record, emit mapreduce.Emit, _ *sim.Ledger) error {
	for _, it := range rec.Items {
		emit(m.tag+strconv.Itoa(int(it)), "1")
	}
	return nil
}

// countedType registers, once, a word-count job type whose builder logs its
// calls, and returns the type name, the params naming the calling test and
// a fresh log for it. The mapper tags every word with the job's cache blobs
// in name order, so the output shows which blobs built the job.
func countedType(t *testing.T) (string, json.RawMessage, *buildLog) {
	t.Helper()
	registerCounted.Do(func() {
		RegisterJobType("test-counted", func(params []byte, cache mapreduce.CacheFiles) (mapreduce.Tasks, error) {
			v, _ := buildLogs.Load(string(params))
			b := v.(*buildLog)
			b.builds.Add(1)
			b.mu.Lock()
			b.caches = append(b.caches, cache)
			b.mu.Unlock()
			names := make([]string, 0, len(cache))
			for name := range cache {
				names = append(names, name)
			}
			sort.Strings(names)
			var tag strings.Builder
			for _, name := range names {
				tag.Write(cache[name])
				tag.WriteByte(':')
			}
			return mapreduce.Tasks{
				NewMapper: func() mapreduce.Mapper {
					b.mappers.Add(1)
					return taggedMapper{tag: tag.String()}
				},
				NewCombiner: func() mapreduce.Reducer { return wordSum{} },
				NewReducer: func() mapreduce.Reducer {
					b.reducers.Add(1)
					return wordSum{}
				},
			}, nil
		})
	})
	params, _ := json.Marshal(t.Name()) // a string always marshals
	b := &buildLog{}
	buildLogs.Store(string(params), b)
	return "test-counted", params, b
}

// TestLocalBuildsOncePerJob checks that Local builds a job once per
// ExecJob, from exactly the spec's cache blobs, and makes one mapper per
// map task and one reducer per reduce task from that build.
func TestLocalBuildsOncePerJob(t *testing.T) {
	typ, params, log := countedType(t)
	spec := &JobSpec{
		Name: "wc", Type: typ, Params: params, InputPath: "/in/corpus.txt",
		NumMaps: 4, NumReducers: 3,
		Cache: map[string][]byte{ScratchDir + "/a": []byte("A"), ScratchDir + "/b": []byte("B")},
	}
	data, err := os.ReadFile(writeCorpus(t, 200))
	if err != nil {
		t.Fatal(err)
	}
	fs := dfs.New(4, dfs.WithBlockSize(512))
	if err := fs.WriteFile(spec.InputPath, data, nil); err != nil {
		t.Fatal(err)
	}
	runner, err := mapreduce.NewRunner(fs, cluster.Local())
	if err != nil {
		t.Fatal(err)
	}
	local := NewLocal(runner, fs)
	for job := 1; job <= 2; job++ {
		out, err := local.ExecJob(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if n := log.builds.Load(); n != int64(job) {
			t.Fatalf("%d ExecJobs built %d times, want once each", job, n)
		}
		for _, kv := range out.KVs {
			if !strings.HasPrefix(kv.Key, "A:B:") {
				t.Fatalf("key %q not built from both blobs in name order", kv.Key)
			}
		}
	}
	for _, c := range log.caches {
		if got := map[string][]byte(c); !reflect.DeepEqual(got, spec.Cache) {
			t.Fatalf("builder got cache %q, want the spec's %q", got, spec.Cache)
		}
	}
	maps := 0
	for _, rep := range runner.Reports() {
		maps += rep.Stages[0].Tasks
	}
	if n := log.mappers.Load(); n != int64(maps) || maps < 8 {
		t.Fatalf("%d mappers for %d map tasks, want one each and at least 4 per job", n, maps)
	}
	if n := log.reducers.Load(); n != 6 {
		t.Fatalf("%d reducers for 6 reduce tasks", n)
	}
}

// pathCounter counts one worker's requests by URL path.
type pathCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *pathCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.n[r.URL.Path]++
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

func (c *pathCounter) CloseIdleConnections() {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

func (c *pathCounter) count(path string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[path]
}

// TestWorkerBuildsOncePerJob runs a job of 4 maps and 3 reduces on two
// loopback workers: each worker fetches the job's blob and builds the job
// at most once, whatever share of the 7 tasks it runs.
func TestWorkerBuildsOncePerJob(t *testing.T) {
	typ, params, log := countedType(t)
	cfg := fastTuning()
	// No declared death under -race stalls: a rejoin would rightly rebuild.
	cfg.HeartbeatTimeout = 5 * time.Second
	master, err := StartMaster(MasterOptions{Addr: "127.0.0.1:0", Tuning: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	counters := []*pathCounter{{n: map[string]int{}}, {n: map[string]int{}}}
	for _, c := range counters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunWorker(ctx, WorkerOptions{MasterURL: master.URL(), Transport: c}); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
	}()

	spec := &JobSpec{
		Name: "wc", Type: typ, Params: params, InputPath: writeCorpus(t, 200),
		NumMaps: 4, NumReducers: 3, Cache: map[string][]byte{ScratchDir + "/c": []byte("C")},
	}
	jctx, jcancel := context.WithTimeout(ctx, 60*time.Second)
	defer jcancel()
	if _, err := master.ExecJob(jctx, spec); err != nil {
		t.Fatal(err)
	}
	for i, c := range counters {
		if n := c.count("/dist/cache"); n > 1 {
			t.Errorf("worker %d fetched the job's blob %d times, want at most once", i, n)
		}
	}
	if n, fetched := log.builds.Load(), counters[0].count("/dist/cache")+counters[1].count("/dist/cache"); n != int64(fetched) || n < 1 {
		t.Fatalf("%d builds from %d blob fetches, want one build per fetch and at least one", n, fetched)
	}
	log.mu.Lock()
	for _, c := range log.caches {
		if !reflect.DeepEqual(map[string][]byte(c), spec.Cache) {
			t.Errorf("a worker built from cache %q, want %q", c, spec.Cache)
		}
	}
	log.mu.Unlock()
}

// TestRestartedMasterJobNotBuiltFromStaleBlob is the regression test for a
// worker that outlives its master. A master restarted without its journal
// numbers its jobs from 1 again, so a worker that kept the first master's
// job 1 under its seq mapped the second master's job 1 with the first
// master's candidate file: a mine restarted that way counted the previous
// run's candidates. Registration now drops every built job.
func TestRestartedMasterJobNotBuiltFromStaleBlob(t *testing.T) {
	typ, params, _ := countedType(t)
	input := writeCorpus(t, 50)
	spec := func(blob string) *JobSpec {
		return &JobSpec{Name: "wc", Type: typ, Params: params, InputPath: input,
			NumMaps: 2, NumReducers: 1, Cache: map[string][]byte{ScratchDir + "/C": []byte(blob)}}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	a, err := StartMaster(MasterOptions{Addr: "127.0.0.1:0", Tuning: fastTuning()})
	if err != nil {
		t.Fatal(err)
	}
	addr := a.Addr()
	startWorkers(t, a.URL(), 1)
	if _, err := a.ExecJob(ctx, spec("X")); err != nil {
		t.Fatal(err)
	}
	a.Close()

	b, err := StartMaster(MasterOptions{Addr: addr, Tuning: fastTuning()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for b.LiveWorkers() < 1 {
		if ctx.Err() != nil {
			t.Fatal("the worker never rejoined the restarted master")
		}
		time.Sleep(10 * time.Millisecond)
	}
	out, err := b.ExecJob(ctx, spec("Y"))
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range out.KVs {
		if !strings.HasPrefix(kv.Key, "Y:") {
			t.Fatalf("the restarted master's job mapped key %q, want every key built from its own blob Y", kv.Key)
		}
	}
}

// TestBuildOutdatedByRegistrationNotKept checks the race inside that fix:
// a build whose blob was fetched before a re-registration finished is used
// by its task but not kept for the job's later tasks.
func TestBuildOutdatedByRegistrationNotKept(t *testing.T) {
	typ, params, log := countedType(t)
	var w *worker
	var restarted atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/dist/register":
			json.NewEncoder(rw).Encode(RegisterResponse{WorkerID: 1}) //nolint:errcheck
		case "/dist/cache":
			// The master restarts while the first blob is in flight: the
			// worker re-registers before its build completes.
			if !restarted.Swap(true) {
				if err := w.register(r.Context()); err != nil {
					t.Error(err)
				}
			}
			rw.Write([]byte("X")) //nolint:errcheck
		}
	}))
	defer srv.Close()
	w = &worker{
		opts:    WorkerOptions{MasterURL: srv.URL}.withDefaults(),
		client:  srv.Client(),
		outputs: map[outputKey][][]byte{},
		jobs:    map[int]mapreduce.Tasks{},
	}
	task := &TaskSpec{Job: "wc", Seq: 1, Type: typ, Params: params,
		Phase: PhaseMap, CacheNames: []string{ScratchDir + "/C"}}
	for i, kept := range []bool{false, true} {
		if _, err := w.job(context.Background(), task); err != nil {
			t.Fatal(err)
		}
		w.mu.Lock()
		_, ok := w.jobs[task.Seq]
		w.mu.Unlock()
		if ok != kept {
			t.Fatalf("build %d kept = %v, want %v", i+1, ok, kept)
		}
	}
	if _, err := w.job(context.Background(), task); err != nil {
		t.Fatal(err)
	}
	if n := log.builds.Load(); n != 2 {
		t.Fatalf("%d builds, want 2: the outdated one and the kept one", n)
	}
}
