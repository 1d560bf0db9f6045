package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync"
	"testing"
	"time"

	"yafim/internal/leaktest"
	"yafim/internal/mapreduce"
	"yafim/internal/obs"
	"yafim/internal/sim"
)

// holdTuning has a hold bound far longer than any wake should take, so a
// test that sees a prompt answer knows it was woken, not timed out.
func holdTuning(bound time.Duration) Tuning {
	cfg := fastTuning()
	cfg.HeartbeatInterval = bound
	cfg.HeartbeatTimeout = 10 * time.Second
	return cfg
}

// postLease sends one lease request for worker id. When sent is non-nil it
// is closed once the request is on the wire.
func postLease(ctx context.Context, client *http.Client, masterURL string, id int, sent chan struct{}) (*http.Response, error) {
	if sent != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest: func(httptrace.WroteRequestInfo) { close(sent) },
		})
	}
	body, err := json.Marshal(LeaseRequest{WorkerID: id})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, masterURL+"/dist/lease",
		bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return client.Do(req)
}

// barrierMapper is word count's mapper with a 200 ms stall on the input's
// first line, so the map over the first split ends well after the other.
type barrierMapper struct{ wordMapper }

func (m barrierMapper) Map(rec mapreduce.Record, emit mapreduce.Emit, led *sim.Ledger) error {
	if rec.Offset == 0 {
		time.Sleep(200 * time.Millisecond)
	}
	return m.wordMapper.Map(rec, emit, led)
}

var registerBarrier sync.Once

func barrierType(t *testing.T) string {
	t.Helper()
	registerBarrier.Do(func() {
		RegisterJobType("test-barrier", func([]byte, mapreduce.CacheFiles) (mapreduce.Tasks, error) {
			return mapreduce.Tasks{
				NewMapper: func() mapreduce.Mapper { return barrierMapper{} },
				// A 300 ms set-up per reduce task: one worker running both
				// reduces back to back would start the second well after
				// the first.
				NewReducer: func() mapreduce.Reducer {
					time.Sleep(300 * time.Millisecond)
					return wordSum{}
				},
			}, nil
		})
	})
	return "test-barrier"
}

// TestReducesGrantedOnLastMapCompletion checks the wake end to end over
// loopback. The worker that ran the fast map waits at the map barrier in a
// held lease request; with a 2 s hold bound it can only get a reduce
// promptly if the last map's completion wakes it, and the slow reducers
// keep the other worker from running both in time.
func TestReducesGrantedOnLastMapCompletion(t *testing.T) {
	typ := barrierType(t)
	input := writeCorpus(t, 200)
	log := obs.NewEventLog(nil)
	master, err := StartMaster(MasterOptions{Addr: "127.0.0.1:0", Tuning: holdTuning(2 * time.Second), Log: log})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	startWorkers(t, master.URL(), 2)
	for deadline := time.Now().Add(10 * time.Second); master.LiveWorkers() < 2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for both workers to register")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := master.ExecJob(ctx, &JobSpec{Name: "wc", Type: typ, InputPath: input,
		NumMaps: 2, NumReducers: 2}); err != nil {
		t.Fatal(err)
	}

	var lastMap float64
	var grants []float64
	for _, ev := range log.Events() {
		switch {
		case ev.Event == "task_complete" && ev.Phase == PhaseMap:
			lastMap = ev.TsMs
		case ev.Event == "lease_grant" && ev.Phase == PhaseReduce:
			grants = append(grants, ev.TsMs)
		}
	}
	if len(grants) != 2 {
		t.Fatalf("%d reduce grants, want 2", len(grants))
	}
	for i, at := range grants {
		if lag := at - lastMap; lag >= 100 {
			t.Errorf("reduce grant %d came %.1f ms after the last map completed, want < 100 ms", i, lag)
		}
	}
}

// TestMasterCloseReleasesHeldLeases holds two lease requests with nothing
// to run, then closes the master: Close must not wait out the 2 s hold, and
// both requests get the 503 a worker treats as an unreachable master.
func TestMasterCloseReleasesHeldLeases(t *testing.T) {
	master, err := StartMaster(MasterOptions{Addr: "127.0.0.1:0", Tuning: holdTuning(2 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	statuses := make(chan int, 2)
	for _, addr := range []string{"a:1", "b:2"} {
		id, err := master.table.register(addr, nil, master.now())
		if err != nil {
			t.Fatal(err)
		}
		sent := make(chan struct{})
		go func() {
			res, err := postLease(context.Background(), client, master.URL(), id, sent)
			if err != nil {
				statuses <- 0
				return
			}
			res.Body.Close()
			statuses <- res.StatusCode
		}()
		<-sent
	}
	time.Sleep(50 * time.Millisecond) // let both handlers reach the hold

	start := time.Now()
	if err := master.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= 200*time.Millisecond {
		t.Errorf("Close took %v with two held leases, want < 200ms", d)
	}
	for i := 0; i < 2; i++ {
		if s := <-statuses; s != http.StatusServiceUnavailable {
			t.Errorf("held lease answered %d on close, want %d", s, http.StatusServiceUnavailable)
		}
	}
}

// TestCanceledHeldLeaseLeavesNothing cancels a held lease request: the
// master's handler must return at once (no goroutine outlives it, though the
// 5 s hold bound has not passed), and a job started afterwards must not be
// granted to the departed request.
func TestCanceledHeldLeaseLeavesNothing(t *testing.T) {
	log := obs.NewEventLog(nil)
	master, err := StartMaster(MasterOptions{Addr: "127.0.0.1:0", Tuning: holdTuning(5 * time.Second), Log: log})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	id, err := master.table.register("a:1", nil, master.now())
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	check := leaktest.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	sent := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		res, err := postLease(ctx, client, master.URL(), id, sent)
		if err == nil {
			res.Body.Close()
		}
		done <- err
	}()
	<-sent
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("lease answered with nothing runnable (err %v), want it held", err)
	default:
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled lease returned %v, want context.Canceled", err)
	}
	check()

	if _, err := master.table.startJob(&JobSpec{Name: "j", Type: "t", NumReducers: 1},
		[]Split{{Path: "/in", Length: 100}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // time enough for a stray handler to grab it
	for _, ev := range log.Events() {
		if ev.Event == "lease_grant" {
			t.Fatalf("task granted after its request was canceled: %+v", ev)
		}
	}
}

// TestMasterClosesSilentConnection opens a TCP connection that never sends
// a header: the master must close it within its header timeout
// (HeartbeatTimeout), not hold it open forever.
func TestMasterClosesSilentConnection(t *testing.T) {
	cfg := fastTuning()
	master, err := StartMaster(MasterOptions{Addr: "127.0.0.1:0", Tuning: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	conn, err := net.Dial("tcp", master.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	conn.SetReadDeadline(start.Add(cfg.HeartbeatTimeout + 5*time.Second)) //nolint:errcheck
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("silent connection read returned %v, want EOF (closed by the master)", err)
	}
	if d := time.Since(start); d > cfg.HeartbeatTimeout+time.Second {
		t.Fatalf("silent connection closed after %v, header timeout is %v", d, cfg.HeartbeatTimeout)
	}
}

// TestLeaseHeldForFullBoundAnswersEmpty holds a lease for its whole bound
// with nothing to run: the master's write timeout must leave room for the
// answer, which is a well-formed empty lease.
func TestLeaseHeldForFullBoundAnswersEmpty(t *testing.T) {
	cfg := holdTuning(300 * time.Millisecond)
	master, err := StartMaster(MasterOptions{Addr: "127.0.0.1:0", Tuning: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	id, err := master.table.register("a:1", nil, master.now())
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	start := time.Now()
	res, err := postLease(context.Background(), &http.Client{Transport: tr}, master.URL(), id, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if d := time.Since(start); d < cfg.HeartbeatInterval {
		t.Fatalf("empty lease answered after %v, before the %v hold bound", d, cfg.HeartbeatInterval)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	var resp LeaseResponse
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		t.Fatalf("held lease answer does not decode: %v", err)
	}
	if resp != (LeaseResponse{}) {
		t.Fatalf("held lease answer = %+v, want empty", resp)
	}
}

// closeRecorder counts CloseIdleConnections calls on a base transport.
type closeRecorder struct {
	http.RoundTripper
	closes int
}

func (c *closeRecorder) CloseIdleConnections() { c.closes++ }

// TestChaosTransportClosesIdleConnections checks that a client built on a
// ChaosTransport releases the base transport's idle connections, as the
// worker does before it shuts its server down.
func TestChaosTransportClosesIdleConnections(t *testing.T) {
	base := &closeRecorder{RoundTripper: http.DefaultTransport}
	ct, err := NewChaosTransport(TransportPlan{}, base)
	if err != nil {
		t.Fatal(err)
	}
	(&http.Client{Transport: ct}).CloseIdleConnections()
	if base.closes != 1 {
		t.Fatalf("base CloseIdleConnections called %d times, want 1", base.closes)
	}
}
