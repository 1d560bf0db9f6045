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
		outputs: map[outputKey][][]byte{},
		jobs:    map[int]mapreduce.Tasks{},
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
		outputs: map[outputKey][][]byte{},
		jobs:    map[int]mapreduce.Tasks{},
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

// TestReduceCorruptPartitionJournaled checks that a map-output run frame
// that does not parse is journaled as a fetch failure naming the decode
// error, so a corrupt body is told apart from a dead producer, and that a
// body cut short of its Content-Length fails the fetch. Either way the map
// lands in FailedMaps.
func TestReduceCorruptPartitionJournaled(t *testing.T) {
	typ := wordCountType(t)
	for _, c := range []struct {
		name   string
		serve  func(rw http.ResponseWriter)
		detail string // what the fetch_failed event's detail must hold
	}{
		{"line without a tab", func(rw http.ResponseWriter) {
			rw.Write([]byte("fox\t1\nno-tab-here\n")) //nolint:errcheck
		}, "decode: malformed record"},
		{"keys out of order", func(rw http.ResponseWriter) {
			rw.Write([]byte("fox\t1\nbrown\t1\n")) //nolint:errcheck
		}, `decode: key "brown" after key "fox"`},
		{"body shorter than its Content-Length", func(rw http.ResponseWriter) {
			conn, buf, err := http.NewResponseController(rw).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			buf.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 64\r\n\r\nfox\t1\n") //nolint:errcheck
			buf.Flush()                                                              //nolint:errcheck
		}, "map 0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			peer := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
				c.serve(rw)
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
				outputs: map[outputKey][][]byte{},
				jobs:    map[int]mapreduce.Tasks{},
			}
			task := &TaskSpec{
				Job: "j", Seq: 1, Type: typ, Phase: PhaseReduce, Index: 0,
				NumMaps: 1, NumReducers: 1, MapAddrs: []string{strings.TrimPrefix(peer.URL, "http://")},
			}
			_, failed, rerr := w.runReduce(context.Background(), task)
			if rerr == nil {
				t.Fatal("runReduce succeeded on a bad run frame")
			}
			if len(failed) != 1 || failed[0] != 0 {
				t.Fatalf("FailedMaps = %v, want [0]", failed)
			}
			journaled := false
			for _, ev := range log.Events() {
				if ev.Event == "fetch_failed" && strings.Contains(ev.Detail, c.detail) {
					journaled = true
				}
			}
			if !journaled {
				t.Fatalf("no fetch_failed event with %q in its detail journaled: %+v", c.detail, log.Events())
			}
		})
	}
}
