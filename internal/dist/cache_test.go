package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"yafim/internal/mapreduce"
	"yafim/internal/obs"
)

// TestDropStaleCachesEvictsOlderJobs is the regression test for the
// per-job memo and map-output leaks: both were keyed by job seq but never
// deleted, so a long-lived worker accumulated every finished job's
// candidate batches and partitions forever. A task from a newer job proves
// every older job's built tasks and outputs are dead weight: they are no
// longer kept, served or re-advertised.
func TestDropStaleCachesEvictsOlderJobs(t *testing.T) {
	part := [][]byte{[]byte("tea\t1\n")}
	w := &worker{
		jobs: map[int]mapreduce.Tasks{1: {}, 2: {}},
		outputs: map[outputKey][][]byte{
			{seq: 1, mapIndex: 0}: part,
			{seq: 1, mapIndex: 1}: part,
			{seq: 2, mapIndex: 0}: part,
		},
	}
	w.dropStaleCaches(2)
	if _, ok := w.jobs[2]; !ok || len(w.jobs) != 1 {
		t.Fatalf("built jobs after drop = %v, want only seq 2's", w.jobs)
	}
	if ads := w.outputAds(); !reflect.DeepEqual(ads, []OutputAd{{Seq: 2, Map: 0}}) {
		t.Fatalf("output ads after drop = %v, want only seq 2's map 0", ads)
	}
	for _, c := range []struct{ seq, code int }{{1, http.StatusNotFound}, {2, http.StatusOK}} {
		rec := httptest.NewRecorder()
		w.handleOutput(rec, httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/dist/output?seq=%d&map=0&part=0", c.seq), nil))
		if rec.Code != c.code {
			t.Fatalf("/dist/output for seq %d answered %d, want %d", c.seq, rec.Code, c.code)
		}
		if c.code == http.StatusOK && (rec.Body.String() != "tea\t1\n" || rec.Header().Get("Content-Length") != "6") {
			t.Fatalf("/dist/output served %q with Content-Length %q, want the stored frame and its length",
				rec.Body.String(), rec.Header().Get("Content-Length"))
		}
	}
	// Dropping for the same seq again is a no-op.
	w.dropStaleCaches(2)
	if len(w.jobs) != 1 || len(w.outputs) != 1 {
		t.Fatalf("idempotent drop changed state: %d jobs, %d outputs", len(w.jobs), len(w.outputs))
	}
}

// TestRunTaskDropsOlderSeqBlobs drives the eviction through the real task
// path: executing any task of a newer job drops older jobs' built tasks and
// map outputs before the task runs.
func TestRunTaskDropsOlderSeqBlobs(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		json.NewEncoder(rw).Encode(CompleteResponse{Accepted: true}) //nolint:errcheck
	}))
	defer srv.Close()
	w := &worker{
		opts:   WorkerOptions{MasterURL: srv.URL}.withDefaults(),
		client: srv.Client(),
		blocks: newBlockCache(1 << 20),
		jobs:   map[int]mapreduce.Tasks{1: {}, 3: {}},
		outputs: map[outputKey][][]byte{
			{seq: 1, mapIndex: 0}: {[]byte("tea\t1\n")},
			{seq: 3, mapIndex: 0}: {[]byte("tea\t2\n")},
		},
	}
	// An unknown phase fails the task, but the stale sweep runs first and
	// the completion (reporting the failure) still posts — which is all
	// this test needs.
	w.runTask(context.Background(), &TaskSpec{
		Job: "j", Seq: 3, Phase: "bogus", Index: 0, Attempt: 1,
	})
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.jobs[1]; ok {
		t.Fatal("older job's built tasks survived a newer job's task")
	}
	if _, ok := w.jobs[3]; !ok {
		t.Fatal("current job's built tasks dropped")
	}
	if _, ok := w.outputs[outputKey{seq: 1, mapIndex: 0}]; ok {
		t.Fatal("older job's map output survived a newer job's task")
	}
	if _, ok := w.outputs[outputKey{seq: 3, mapIndex: 0}]; !ok {
		t.Fatal("current job's map output evicted")
	}
}

// TestSecondJobServedFromCache is the tentpole's end-to-end proof: a second
// job over the same input touches the disk zero times — every split is
// served from the workers' block caches, with placement-aware leasing
// steering each split's map back to the worker that caches it.
func TestSecondJobServedFromCache(t *testing.T) {
	typ := wordCountType(t)
	input := writeCorpus(t, 200)
	cfg := fastTuning()
	// A generous grace window: under -race scheduling stalls must never let
	// a non-caching worker steal a split before its owner polls again.
	cfg.HeartbeatTimeout = 5 * time.Second
	reg := obs.NewRegistry()
	master, err := StartMaster(MasterOptions{Addr: "127.0.0.1:0", Tuning: cfg, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	startWorkers(t, master.URL(), 2)

	spec := func(name string) *JobSpec {
		return &JobSpec{Name: name, Type: typ, InputPath: input,
			NumMaps: 4, NumReducers: 3}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	outA, err := master.ExecJob(ctx, spec("wc-a"))
	if err != nil {
		t.Fatal(err)
	}
	readsAfterA := master.table.m.inputReads.Value()
	if readsAfterA != 4 {
		t.Fatalf("job A read %v splits from disk, want 4 (one per split)", readsAfterA)
	}

	outB, err := master.ExecJob(ctx, spec("wc-b"))
	if err != nil {
		t.Fatal(err)
	}
	if got := master.table.m.inputReads.Value(); got != readsAfterA {
		t.Fatalf("job B touched the disk: input reads %v -> %v, want no change",
			readsAfterA, got)
	}
	if hits := master.table.m.cacheHits.Value(); hits < 4 {
		t.Fatalf("cache hits = %v after job B, want >= 4", hits)
	}
	outA.Duration, outB.Duration = 0, 0
	if !reflect.DeepEqual(outA, outB) {
		t.Fatalf("cached job output diverges:\n a %v\n b %v", outA.KVs, outB.KVs)
	}
}

// TestCacheRebuildAfterWorkerRestartParity kills the only worker between two
// jobs: the replacement's cold cache re-reads every split — the cache is
// ephemeral by design — and the results stay byte-identical.
func TestCacheRebuildAfterWorkerRestartParity(t *testing.T) {
	typ := wordCountType(t)
	input := writeCorpus(t, 120)
	reg := obs.NewRegistry()
	master, err := StartMaster(MasterOptions{Addr: "127.0.0.1:0", Tuning: fastTuning(), Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	stop := startWorkers(t, master.URL(), 1)

	spec := func(name string) *JobSpec {
		return &JobSpec{Name: name, Type: typ, InputPath: input,
			NumMaps: 4, NumReducers: 2}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	outA, err := master.ExecJob(ctx, spec("wc-a"))
	if err != nil {
		t.Fatal(err)
	}
	readsA := master.table.m.inputReads.Value()
	if readsA != 4 {
		t.Fatalf("job A read %v splits, want 4", readsA)
	}

	// Kill the worker and wait for the liveness monitor to notice, so its
	// cache advertisement is retracted before the next job's leases are cut.
	stop()
	deadline := time.Now().Add(10 * time.Second)
	for master.LiveWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead worker never swept")
		}
		time.Sleep(20 * time.Millisecond)
	}
	startWorkers(t, master.URL(), 1)

	outB, err := master.ExecJob(ctx, spec("wc-b"))
	if err != nil {
		t.Fatal(err)
	}
	if got := master.table.m.inputReads.Value(); got != readsA+4 {
		t.Fatalf("input reads = %v after cold restart, want %v (full re-read)",
			got, readsA+4)
	}
	outA.Duration, outB.Duration = 0, 0
	if !reflect.DeepEqual(outA, outB) {
		t.Fatalf("post-restart output diverges:\n a %v\n b %v", outA.KVs, outB.KVs)
	}
}
