package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"yafim/internal/obs"
)

func TestTransportPlanValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan TransportPlan
		ok   bool
	}{
		{"zero", TransportPlan{}, true},
		{"default", DefaultTransportPlan(1), true},
		{"prob over one", TransportPlan{DropRequestProb: 1.5}, false},
		{"negative prob", TransportPlan{DuplicateProb: -0.1}, false},
		{"negative delay", TransportPlan{MaxDelay: -time.Second}, false},
		{"delay prob without max", TransportPlan{DelayProb: 0.5}, false},
		{"empty partition target", TransportPlan{Partitions: []LinkPartition{{}}}, false},
		{"partition heals before start", TransportPlan{Partitions: []LinkPartition{
			{Target: "x", From: time.Second, Until: time.Millisecond}}}, false},
		{"forever partition", TransportPlan{Partitions: []LinkPartition{{Target: "x"}}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
	if _, err := NewChaosTransport(TransportPlan{DelayProb: 2}, nil); err == nil {
		t.Fatal("NewChaosTransport accepted an invalid plan")
	}
}

// chaosClient returns a client over srv wrapped in the plan's faults.
func chaosClient(t *testing.T, plan TransportPlan, srv *httptest.Server) *http.Client {
	t.Helper()
	ct, err := NewChaosTransport(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &http.Client{Transport: ct, Timeout: 5 * time.Second}
}

// TestChaosTransportDeterministic checks the per-call fault verdicts are a
// pure function of (seed, path, call number): two transports with one seed
// agree call-for-call; a different seed diverges somewhere.
func TestChaosTransportDeterministic(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	verdicts := func(seed int64) string {
		plan := TransportPlan{Seed: seed, DropRequestProb: 0.3, DropResponseProb: 0.3}
		client := chaosClient(t, plan, srv)
		var sb strings.Builder
		for i := 0; i < 40; i++ {
			resp, err := client.Get(srv.URL + "/dist/lease")
			var fe *FaultError
			switch {
			case err == nil:
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()              //nolint:errcheck
				sb.WriteByte('.')
			case errors.As(err, &fe):
				sb.WriteByte(fe.Kind[7]) // 'q' for drop_request, 's' for drop_response
			default:
				t.Fatalf("call %d: unexpected error %v", i, err)
			}
		}
		return sb.String()
	}
	a, b, c := verdicts(7), verdicts(7), verdicts(8)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if a == c {
		t.Fatalf("different seeds agreed: %s", a)
	}
	if !strings.ContainsAny(a, "qs") || !strings.Contains(a, ".") {
		t.Fatalf("seed 7 schedule not a mix of faults and successes: %s", a)
	}
}

// TestChaosTransportDuplicate checks duplicate delivery reaches the server
// twice per caller-visible request.
func TestChaosTransportDuplicate(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if string(body) != `{"x":1}` {
			t.Errorf("server saw body %q", body)
		}
		hits.Add(1)
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	client := chaosClient(t, TransportPlan{Seed: 1, DuplicateProb: 1}, srv)
	resp, err := client.Post(srv.URL+"/dist/complete", "application/json",
		strings.NewReader(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()              //nolint:errcheck
	if n := hits.Load(); n != 2 {
		t.Fatalf("server hits = %d, want 2 (original + duplicate)", n)
	}
}

// TestChaosTransportDropResponse checks the at-least-once edge: the server
// processes the request, the caller sees a failure.
func TestChaosTransportDropResponse(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	client := chaosClient(t, TransportPlan{Seed: 1, DropResponseProb: 1}, srv)
	_, err := client.Get(srv.URL + "/dist/heartbeat")
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Kind != "drop_response" {
		t.Fatalf("err = %v, want drop_response FaultError", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("server hits = %d, want 1: a dropped response must still be processed", hits.Load())
	}
}

// TestChaosTransportDropRequest checks a dropped request never reaches the
// server.
func TestChaosTransportDropRequest(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer srv.Close()

	client := chaosClient(t, TransportPlan{Seed: 1, DropRequestProb: 1}, srv)
	_, err := client.Get(srv.URL + "/dist/lease")
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Kind != "drop_request" {
		t.Fatalf("err = %v, want drop_request FaultError", err)
	}
	if hits.Load() != 0 {
		t.Fatalf("server hits = %d, want 0: a dropped request must never arrive", hits.Load())
	}
}

// TestChaosTransportPartition checks a partition window cuts matching links
// immediately (no dial) and leaves others untouched.
func TestChaosTransportPartition(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	client := chaosClient(t, TransportPlan{Seed: 1, Partitions: []LinkPartition{
		{Target: "/dist/lease"}, // forever
	}}, srv)
	_, err := client.Get(srv.URL + "/dist/lease")
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Kind != "partition" {
		t.Fatalf("err = %v, want partition FaultError", err)
	}
	if hits.Load() != 0 {
		t.Fatal("partitioned request reached the server")
	}
	resp, err := client.Get(srv.URL + "/dist/heartbeat")
	if err != nil {
		t.Fatalf("unpartitioned link failed: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()              //nolint:errcheck
	if hits.Load() != 1 {
		t.Fatal("unpartitioned request did not reach the server")
	}
}

// TestChaosMiningParityWordCount is the transport's end-to-end protocol
// check: a full master/worker word-count run with every fault kind injected
// on every link must produce exactly the oracle's output — the protocol, not
// the schedule, is the invariant (see the ChaosTransport doc comment).
func TestChaosMiningParityWordCount(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	typ := wordCountType(t)
	corpus := writeCorpus(t, 400)

	oracle := simExec(t, &JobSpec{
		Name: "wc-oracle", Type: typ, InputPath: corpus, NumMaps: 4, NumReducers: 3,
	})

	log := obs.NewEventLog(nil)
	m, err := StartMaster(MasterOptions{Addr: "127.0.0.1:0", Tuning: fastTuning(), Log: log})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		ct, err := NewChaosTransport(DefaultTransportPlan(int64(1000+i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			_ = RunWorker(ctx, WorkerOptions{
				MasterURL: m.URL(),
				Addr:      "127.0.0.1:0",
				Transport: ct,
			})
		}()
	}

	got, err := m.ExecJob(ctx, &JobSpec{
		Name: "wc-chaos", Type: typ, InputPath: corpus, NumMaps: 4, NumReducers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.MapInputRecords != oracle.MapInputRecords {
		t.Fatalf("MapInputRecords = %d, want %d", got.MapInputRecords, oracle.MapInputRecords)
	}
	if !reflect.DeepEqual(got.KVs, oracle.KVs) {
		t.Fatalf("chaos run diverged from oracle:\nwant %v\ngot  %v", oracle.KVs, got.KVs)
	}
}
