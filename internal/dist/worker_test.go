package dist

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"yafim/internal/exec"
	"yafim/internal/mapreduce"
	"yafim/internal/obs"
)

// TestReduceFetchBudget checks the reduce fetch fan-in's wall-clock bound: a
// peer that accepts connections but never answers (a half-open partition, the
// failure heartbeats cannot see) must surface as FetchFailed within the
// budget, naming the starved map, instead of retrying forever.
func TestReduceFetchBudget(t *testing.T) {
	typ := wordCountType(t)

	// A black-hole peer: accepts TCP, never responds.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() //nolint:errcheck
		}
	}()

	log := obs.NewEventLog(nil)
	w := &worker{
		opts: WorkerOptions{
			Fetch:        exec.Backoff{Base: 5 * time.Millisecond, Cap: 20 * time.Millisecond},
			FetchRetries: 1000, // per-target budget far beyond the wall clock
			FetchBudget:  250 * time.Millisecond,
		},
		client:  &http.Client{Timeout: 10 * time.Second},
		log:     log,
		outputs: map[outputKey][]mapreduce.Partition{},
		caches:  map[cacheKey][]byte{},
	}

	task := &TaskSpec{
		Job: "j", Seq: 1, Type: typ, Phase: PhaseReduce, Index: 0,
		NumMaps: 1, NumReducers: 1, MapAddrs: []string{ln.Addr().String()},
	}
	start := time.Now()
	_, failed, rerr := w.runReduce(context.Background(), task)
	elapsed := time.Since(start)

	if rerr == nil {
		t.Fatal("runReduce succeeded against a black-hole peer")
	}
	if len(failed) != 1 || failed[0] != 0 {
		t.Fatalf("FailedMaps = %v, want [0]", failed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("budget of 250ms took %v to trip", elapsed)
	}
	exhausted := false
	for _, ev := range log.Events() {
		if ev.Event == "fetch_budget_exhausted" {
			exhausted = true
		}
	}
	if !exhausted {
		t.Fatal("no fetch_budget_exhausted event journaled")
	}
}

// TestReduceDrainBeatsBudget checks the disambiguation: when the worker
// itself is draining (outer context canceled), the fetch failure is NOT a
// verdict against the map output — no FailedMaps, so the master does not
// invalidate a healthy producer.
func TestReduceDrainBeatsBudget(t *testing.T) {
	typ := wordCountType(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() //nolint:errcheck
		}
	}()

	w := &worker{
		opts: WorkerOptions{
			Fetch:        exec.Backoff{Base: 5 * time.Millisecond, Cap: 20 * time.Millisecond},
			FetchRetries: 1000,
			FetchBudget:  time.Minute,
		},
		client:  &http.Client{Timeout: 10 * time.Second},
		outputs: map[outputKey][]mapreduce.Partition{},
		caches:  map[cacheKey][]byte{},
	}
	task := &TaskSpec{
		Job: "j", Seq: 1, Type: typ, Phase: PhaseReduce, Index: 0,
		NumMaps: 1, NumReducers: 1, MapAddrs: []string{ln.Addr().String()},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, failed, rerr := w.runReduce(ctx, task)
	if rerr == nil {
		t.Fatal("runReduce succeeded while draining")
	}
	if len(failed) != 0 {
		t.Fatalf("drain blamed map outputs: FailedMaps = %v, want none", failed)
	}
}

// TestReduceCorruptPartitionJournaled checks that a map-output partition
// that does not decode is journaled as a fetch failure naming the decode
// error, so a corrupt or truncated body is told apart from a dead producer.
func TestReduceCorruptPartitionJournaled(t *testing.T) {
	typ := wordCountType(t)
	peer := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Write([]byte("{not json")) //nolint:errcheck
	}))
	defer peer.Close()

	log := obs.NewEventLog(nil)
	w := &worker{
		opts: WorkerOptions{
			Fetch:        exec.Backoff{Base: 5 * time.Millisecond, Cap: 20 * time.Millisecond},
			FetchRetries: 3,
			FetchBudget:  time.Minute,
		},
		client:  &http.Client{Timeout: 10 * time.Second},
		log:     log,
		outputs: map[outputKey][]mapreduce.Partition{},
		caches:  map[cacheKey][]byte{},
	}
	task := &TaskSpec{
		Job: "j", Seq: 1, Type: typ, Phase: PhaseReduce, Index: 0,
		NumMaps: 1, NumReducers: 1, MapAddrs: []string{strings.TrimPrefix(peer.URL, "http://")},
	}
	_, failed, rerr := w.runReduce(context.Background(), task)
	if rerr == nil {
		t.Fatal("runReduce succeeded on a partition that does not decode")
	}
	if len(failed) != 1 || failed[0] != 0 {
		t.Fatalf("FailedMaps = %v, want [0]", failed)
	}
	journaled := false
	for _, ev := range log.Events() {
		if ev.Event == "fetch_failed" && strings.Contains(ev.Detail, "decode") {
			journaled = true
		}
	}
	if !journaled {
		t.Fatalf("no fetch_failed event with a decode detail journaled: %+v", log.Events())
	}
}
