package dist

import (
	"fmt"
	"testing"
	"time"
)

// testTuning is a small, fast protocol configuration for virtual-time unit
// tests; the table never reads a clock, so these values are just arithmetic.
func testTuning() Tuning {
	return Tuning{
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  100 * time.Millisecond,
		LeaseDeadline:     time.Second,
		MaxWorkers:        8,
		MaxTaskAttempts:   4,
		BlacklistAfter:    2,
		BlacklistBase:     time.Second,
	}
}

func testJob(t *testing.T, tb *leaseTable, maps, reduces int) *distJob {
	t.Helper()
	splits := make([]Split, maps)
	for i := range splits {
		splits[i] = Split{Path: "/in", Offset: int64(i * 100), Length: 100}
	}
	j, err := tb.startJob(&JobSpec{
		Name: "j", Type: "t", NumMaps: maps, NumReducers: reduces,
	}, splits)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func register(t *testing.T, tb *leaseTable, addr string, now time.Duration) int {
	t.Helper()
	id, err := tb.register(addr, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// completeOK reports a successful attempt for the given leased task.
func completeOK(tb *leaseTable, id int, task *TaskSpec, now time.Duration) (bool, bool) {
	req := &CompleteRequest{
		WorkerID: id, Seq: task.Seq, Phase: task.Phase,
		Index: task.Index, Attempt: task.Attempt, OK: true,
	}
	if task.Phase == PhaseMap {
		req.InputRecords = 1
	} else {
		req.Output = []KV{{Key: fmt.Sprintf("r%d", task.Index), Value: "1"}}
	}
	return tb.complete(req, now)
}

// drain runs the job to completion through worker id, asserting it finishes.
func drain(t *testing.T, tb *leaseTable, id int, now time.Duration) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		task, rejoin := tb.lease(id, now)
		if rejoin {
			t.Fatalf("drain: worker %d told to rejoin", id)
		}
		if task == nil {
			tb.mu.Lock()
			done := tb.job.finished()
			tb.mu.Unlock()
			if done {
				return
			}
			// Let time pass so stale leases held by other workers expire,
			// keeping the drain worker itself alive.
			now += 10 * time.Millisecond
			tb.heartbeat(id, now)
			tb.sweep(now)
			continue
		}
		if ok, _ := completeOK(tb, id, task, now); !ok {
			t.Fatalf("drain: completion rejected for %s %d", task.Phase, task.Index)
		}
	}
	t.Fatal("drain: job did not finish in 1000 rounds")
}

func TestLeaseMapBarrierThenReduce(t *testing.T) {
	tb := newLeaseTable(testTuning(), nil, nil)
	testJob(t, tb, 2, 2)
	// Concurrent leases need distinct workers: a repeat lease from a worker
	// already holding a task is a re-grant of that task, never a second one.
	w := register(t, tb, "a:1", 0)
	w2 := register(t, tb, "b:2", 0)
	w3 := register(t, tb, "c:3", 0)

	task1, _ := tb.lease(w, 0)
	if task1 == nil || task1.Phase != PhaseMap || task1.Attempt != 1 {
		t.Fatalf("first lease = %+v", task1)
	}
	task2, _ := tb.lease(w2, 0)
	if task2 == nil || task2.Phase != PhaseMap {
		t.Fatalf("second lease = %+v", task2)
	}
	// All maps leased, none complete: no reduce may start (its MapAddrs
	// would be incomplete).
	if task, _ := tb.lease(w3, 0); task != nil {
		t.Fatalf("got %s task before map barrier cleared", task.Phase)
	}
	completeOK(tb, w, task1, 0)
	completeOK(tb, w2, task2, 0)
	red, _ := tb.lease(w, 0)
	if red == nil || red.Phase != PhaseReduce {
		t.Fatalf("post-barrier lease = %+v", red)
	}
	if len(red.MapAddrs) != 2 || red.MapAddrs[task1.Index] != "a:1" ||
		red.MapAddrs[task2.Index] != "b:2" {
		t.Fatalf("reduce MapAddrs = %v", red.MapAddrs)
	}
	completeOK(tb, w, red, 0)
	drain(t, tb, w, 0)

	out, err := tb.result()
	if err != nil {
		t.Fatal(err)
	}
	if out.MapInputRecords != 2 {
		t.Errorf("MapInputRecords = %d, want 2", out.MapInputRecords)
	}
	if len(out.KVs) != 2 || out.KVs[0].Key != "r0" || out.KVs[1].Key != "r1" {
		t.Errorf("KVs = %v", out.KVs)
	}
}

func TestHeartbeatExactlyAtDeadlineSurvives(t *testing.T) {
	cfg := testTuning()
	tb := newLeaseTable(cfg, nil, nil)
	w := register(t, tb, "a:1", 0)

	// Beat at t=0; sweeping exactly at the timeout must keep the worker: the
	// contract is now-lastBeat strictly greater than the timeout kills.
	tb.sweep(cfg.HeartbeatTimeout)
	if !tb.heartbeat(w, cfg.HeartbeatTimeout) {
		t.Fatal("worker declared dead with heartbeat age == timeout")
	}
	// One nanosecond past the deadline kills.
	last := cfg.HeartbeatTimeout
	tb.sweep(last + cfg.HeartbeatTimeout + 1)
	if tb.heartbeat(w, last+cfg.HeartbeatTimeout+1) {
		t.Fatal("worker still alive past heartbeat deadline")
	}
	if n := tb.liveWorkerCount(); n != 0 {
		t.Fatalf("live workers = %d", n)
	}
}

func TestLeaseExpiryReassignsAndStrikes(t *testing.T) {
	cfg := testTuning()
	tb := newLeaseTable(cfg, nil, nil)
	testJob(t, tb, 1, 1)
	w1 := register(t, tb, "a:1", 0)
	w2 := register(t, tb, "b:2", 0)

	task, _ := tb.lease(w1, 0)
	if task == nil {
		t.Fatal("no lease")
	}
	// Keep both workers beating but let w1 sit on the task past its lease.
	now := cfg.LeaseDeadline + 1
	tb.heartbeat(w1, now)
	tb.heartbeat(w2, now)
	tb.sweep(now)

	re, _ := tb.lease(w2, now)
	if re == nil || re.Phase != PhaseMap || re.Index != task.Index {
		t.Fatalf("reassigned lease = %+v", re)
	}
	if re.Attempt != 2 {
		t.Fatalf("attempt = %d, want 2", re.Attempt)
	}
	// The overrun charged w1 a strike but one strike is under the blacklist
	// threshold; it can still lease once the task frees up again.
	tb.mu.Lock()
	excluded := tb.health.Excluded(now)
	tb.mu.Unlock()
	if excluded != nil {
		t.Fatalf("blacklisted after one strike, threshold %d: %v", cfg.BlacklistAfter, excluded)
	}
}

func TestWorkerRejoinsAfterBlacklistWindow(t *testing.T) {
	cfg := testTuning()
	tb := newLeaseTable(cfg, nil, nil)
	testJob(t, tb, 1, 1)
	w := register(t, tb, "a:1", 0)

	// Fail BlacklistAfter attempts: the worker is benched.
	var now time.Duration
	for i := 0; i < cfg.BlacklistAfter; i++ {
		task, _ := tb.lease(w, now)
		if task == nil {
			t.Fatalf("no lease on attempt %d", i)
		}
		tb.complete(&CompleteRequest{
			WorkerID: w, Seq: task.Seq, Phase: task.Phase, Index: task.Index,
			Attempt: task.Attempt, OK: false, Error: "boom",
		}, now)
	}
	if task, rejoin := tb.lease(w, now); task != nil || rejoin {
		t.Fatalf("blacklisted worker got lease=%v rejoin=%v", task, rejoin)
	}
	// After the blacklist window the same worker leases again — rejoining
	// needs no re-registration, only patience.
	now += cfg.BlacklistBase + 1
	task, rejoin := tb.lease(w, now)
	if task == nil || rejoin {
		t.Fatalf("post-window lease=%v rejoin=%v", task, rejoin)
	}
	completeOK(tb, w, task, now)
	drain(t, tb, w, now)
	if _, err := tb.result(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadWorkerRejoinsWithFreshID(t *testing.T) {
	cfg := testTuning()
	tb := newLeaseTable(cfg, nil, nil)
	testJob(t, tb, 1, 1)
	w1 := register(t, tb, "a:1", 0)

	now := cfg.HeartbeatTimeout + 1
	tb.sweep(now) // w1 missed its heartbeats: dead
	if ok := tb.heartbeat(w1, now); ok {
		t.Fatal("dead worker heartbeat accepted")
	}
	if task, rejoin := tb.lease(w1, now); task != nil || !rejoin {
		t.Fatalf("dead worker lease=%v rejoin=%v, want rejoin", task, rejoin)
	}
	// The restarted process re-registers: new id, old id stays dead.
	w2 := register(t, tb, "a:1", now)
	if w2 == w1 {
		t.Fatal("worker id reused")
	}
	task, rejoin := tb.lease(w2, now)
	if task == nil || rejoin {
		t.Fatalf("rejoined worker lease=%v rejoin=%v", task, rejoin)
	}
	completeOK(tb, w2, task, now)
	drain(t, tb, w2, now)
}

func TestDuplicateCompletionFromZombieIsIdempotent(t *testing.T) {
	cfg := testTuning()
	tb := newLeaseTable(cfg, nil, nil)
	testJob(t, tb, 1, 1)
	w1 := register(t, tb, "a:1", 0)

	task, _ := tb.lease(w1, 0)
	// w1 stalls; its lease expires and w2 re-runs the task.
	now := cfg.LeaseDeadline + 1
	tb.heartbeat(w1, now)
	tb.sweep(now)
	w2 := register(t, tb, "b:2", now)
	re, _ := tb.lease(w2, now)
	if re == nil {
		t.Fatal("no reassigned lease")
	}
	if ok, _ := completeOK(tb, w2, re, now); !ok {
		t.Fatal("w2 completion rejected")
	}
	// The zombie's late report for the stale attempt must be acknowledged
	// (so it stops retrying) and ignored (no double-count): first valid
	// completion won.
	accepted, rejoin := completeOK(tb, w1, task, now)
	if !accepted || rejoin {
		t.Fatalf("zombie completion accepted=%v rejoin=%v", accepted, rejoin)
	}
	tb.mu.Lock()
	mapsDone, producer := tb.job.mapsDone, tb.job.maps[0].worker
	tb.mu.Unlock()
	if mapsDone != 1 {
		t.Fatalf("mapsDone = %d after duplicate", mapsDone)
	}
	if producer != w2 {
		t.Fatalf("producer = %d, want winner %d", producer, w2)
	}
}

func TestWorkerDeathInvalidatesServedMapOutputs(t *testing.T) {
	cfg := testTuning()
	tb := newLeaseTable(cfg, nil, nil)
	testJob(t, tb, 2, 1)
	w1 := register(t, tb, "a:1", 0)
	w2 := register(t, tb, "b:2", 0)

	m0, _ := tb.lease(w1, 0)
	m1, _ := tb.lease(w2, 0)
	completeOK(tb, w1, m0, 0)
	completeOK(tb, w2, m1, 0)

	// w1 dies after serving its map output: the partitions died with it, so
	// the map must re-run even though it had completed.
	now := cfg.HeartbeatTimeout + 1
	tb.heartbeat(w2, now)
	tb.sweep(now)

	tb.mu.Lock()
	mapsDone := tb.job.mapsDone
	tb.mu.Unlock()
	if mapsDone != 1 {
		t.Fatalf("mapsDone = %d after producer death, want 1", mapsDone)
	}
	re, _ := tb.lease(w2, now)
	if re == nil || re.Phase != PhaseMap || re.Index != m0.Index {
		t.Fatalf("expected map %d recompute, got %+v", m0.Index, re)
	}
	completeOK(tb, w2, re, now)
	red, _ := tb.lease(w2, now)
	if red == nil || red.Phase != PhaseReduce {
		t.Fatalf("reduce not granted after recovery: %+v", red)
	}
	if red.MapAddrs[m0.Index] != "b:2" {
		t.Fatalf("recovered map served from %q, want b:2", red.MapAddrs[m0.Index])
	}
	completeOK(tb, w2, red, now)
	out, err := tb.result()
	if err != nil {
		t.Fatal(err)
	}
	// Each map contributes its input count exactly once despite the re-run.
	if out.MapInputRecords != 2 {
		t.Errorf("MapInputRecords = %d, want 2", out.MapInputRecords)
	}
}

func TestFetchFailedInvalidatesMapsBeforeReduceRetry(t *testing.T) {
	cfg := testTuning()
	tb := newLeaseTable(cfg, nil, nil)
	testJob(t, tb, 2, 1)
	w := register(t, tb, "a:1", 0)

	m0, _ := tb.lease(w, 0)
	completeOK(tb, w, m0, 0)
	m1, _ := tb.lease(w, 0)
	completeOK(tb, w, m1, 0)
	red, _ := tb.lease(w, 0)
	if red == nil || red.Phase != PhaseReduce {
		t.Fatalf("lease = %+v", red)
	}
	// The reducer reports map 1's output unfetchable.
	tb.complete(&CompleteRequest{
		WorkerID: w, Seq: red.Seq, Phase: red.Phase, Index: red.Index,
		Attempt: red.Attempt, OK: false, Error: "fetch", FailedMaps: []int{1},
	}, 0)

	// Map 1 must recompute before any reduce is granted again.
	re, _ := tb.lease(w, 0)
	if re == nil || re.Phase != PhaseMap || re.Index != 1 {
		t.Fatalf("expected map 1 recompute, got %+v", re)
	}
	completeOK(tb, w, re, 0)
	red2, _ := tb.lease(w, 0)
	if red2 == nil || red2.Phase != PhaseReduce || red2.Attempt != 2 {
		t.Fatalf("reduce retry = %+v", red2)
	}
	completeOK(tb, w, red2, 0)
	if _, err := tb.result(); err != nil {
		t.Fatal(err)
	}
}

func TestJobFailsAfterAttemptBudget(t *testing.T) {
	cfg := testTuning()
	tb := newLeaseTable(cfg, nil, nil)
	j := testJob(t, tb, 1, 1)
	w := register(t, tb, "a:1", 0)

	var now time.Duration
	for i := 0; i < cfg.MaxTaskAttempts; i++ {
		// Space the failures out past each blacklist window so the lease is
		// always grantable again.
		now += 10 * cfg.BlacklistBase
		task, _ := tb.lease(w, now)
		if task == nil {
			t.Fatalf("no lease on attempt %d at %v", i, now)
		}
		tb.complete(&CompleteRequest{
			WorkerID: w, Seq: task.Seq, Phase: task.Phase, Index: task.Index,
			Attempt: task.Attempt, OK: false, Error: "persistent",
		}, now)
	}
	select {
	case <-j.doneCh:
	default:
		t.Fatal("job not finished after attempt budget burned")
	}
	if _, err := tb.result(); err == nil {
		t.Fatal("result succeeded for failed job")
	}
}

func TestStaleSeqCompletionDropped(t *testing.T) {
	tb := newLeaseTable(testTuning(), nil, nil)
	testJob(t, tb, 1, 1)
	w := register(t, tb, "a:1", 0)
	task, _ := tb.lease(w, 0)
	completeOK(tb, w, task, 0)
	drain(t, tb, w, 0)

	// Next job: a straggler completion carrying the previous seq must be
	// acknowledged without touching the new job's tasks.
	testJob(t, tb, 1, 1)
	accepted, _ := tb.complete(&CompleteRequest{
		WorkerID: w, Seq: task.Seq, Phase: PhaseMap, Index: 0, Attempt: 1,
		OK: true, InputRecords: 99,
	}, 0)
	if !accepted {
		t.Fatal("stale completion not acknowledged")
	}
	tb.mu.Lock()
	mapsDone := tb.job.mapsDone
	tb.mu.Unlock()
	if mapsDone != 0 {
		t.Fatalf("stale completion advanced new job: mapsDone=%d", mapsDone)
	}
}

// TestWakeOnRunnableTransitions pins the long poll's wake sources on the
// virtual clock: every transition that can make a task runnable closes the
// channel a held lease request waits on; a heartbeat and a grant do not.
func TestWakeOnRunnableTransitions(t *testing.T) {
	cfg := testTuning()
	tb := newLeaseTable(cfg, nil, nil)
	w1 := register(t, tb, "a:1", 0)
	w2 := register(t, tb, "b:2", 0)
	step := func(name string, want bool, fn func()) {
		t.Helper()
		ch := tb.changed()
		fn()
		woke := false
		select {
		case <-ch:
			woke = true
		default:
		}
		if woke != want {
			t.Fatalf("%s: woke = %v, want %v", name, woke, want)
		}
	}

	var j *distJob
	step("job start", true, func() { j = testJob(t, tb, 2, 1) })
	step("heartbeat", false, func() { tb.heartbeat(w1, 0) })
	var m0, m1 *TaskSpec
	step("grants", false, func() {
		m0, _ = tb.lease(w1, 0)
		m1, _ = tb.lease(w2, 0)
	})
	completeOK(tb, w1, m0, 0)
	step("last map's completion", true, func() { completeOK(tb, w2, m1, 0) })
	red, _ := tb.lease(w1, 0)
	if red == nil || red.Phase != PhaseReduce {
		t.Fatalf("reduce lease = %+v", red)
	}
	step("failed completion with FailedMaps", true, func() {
		tb.complete(&CompleteRequest{WorkerID: w1, Seq: red.Seq, Phase: red.Phase,
			Index: red.Index, Attempt: red.Attempt, Error: "fetch",
			FailedMaps: []int{m1.Index}}, 0)
	})
	if re, _ := tb.lease(w2, 0); re == nil || re.Phase != PhaseMap || re.Index != m1.Index {
		t.Fatalf("recompute lease = %+v", re)
	}
	// w2 sits on the recompute past its lease deadline, still beating.
	now := cfg.LeaseDeadline + 1
	tb.heartbeat(w1, now)
	tb.heartbeat(w2, now)
	step("lease expiry in sweep", true, func() { tb.sweep(now) })
	// Then w2 stops beating.
	now += cfg.HeartbeatTimeout + 1
	tb.heartbeat(w1, now)
	step("worker death in sweep", true, func() { tb.sweep(now) })
	step("job failure", true, func() { tb.failJob(j, fmt.Errorf("canceled")) })

	// A job left suspended by journal replay is adopted by a re-submission
	// of the same shape.
	j2 := testJob(t, tb, 1, 1)
	tb.mu.Lock()
	j2.suspended = true
	tb.mu.Unlock()
	step("adoption of a suspended job", true, func() {
		if j := testJob(t, tb, 1, 1); j != j2 {
			t.Fatal("re-submission did not adopt the suspended job")
		}
	})
}

// FuzzLeaseReassignment drives the lease table through arbitrary
// interleavings of worker crashes, rejoins, failures, expiries and duplicate
// completions, then checks the protocol's core invariants: the state machine
// never panics or deadlocks, a drainable job always finishes, every map's
// input count is tallied exactly once, and the assembled output holds
// exactly one record per reduce partition.
func FuzzLeaseReassignment(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x13, 0x37})
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55, 0x10, 0x20, 0x30, 0x40})
	f.Add([]byte("crash-rejoin-complete"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := testTuning()
		cfg.MaxTaskAttempts = 1 << 30 // adversarial schedules may burn many
		tb := newLeaseTable(cfg, nil, nil)
		j := testJob(t, tb, 3, 2)

		var now time.Duration
		ids := []int{}
		leased := map[int]*TaskSpec{} // live worker id -> last leased task
		addID := func() {
			if id, err := tb.register(fmt.Sprintf("w:%d", len(ids)), nil, now); err == nil {
				ids = append(ids, id)
			}
		}
		addID()
		for _, b := range data {
			if len(ids) == 0 {
				addID()
			}
			id := ids[int(b>>4)%len(ids)]
			switch b % 6 {
			case 0: // heartbeat
				tb.heartbeat(id, now)
			case 1: // lease
				if task, _ := tb.lease(id, now); task != nil {
					leased[id] = task
				}
			case 2: // complete OK (possibly duplicate or stale-lease)
				if task := leased[id]; task != nil {
					completeOK(tb, id, task, now)
				}
			case 3: // complete failed, sometimes with FailedMaps
				if task := leased[id]; task != nil {
					req := &CompleteRequest{
						WorkerID: id, Seq: task.Seq, Phase: task.Phase,
						Index: task.Index, Attempt: task.Attempt, OK: false,
						Error: "fuzz",
					}
					if task.Phase == PhaseReduce && b&0x08 != 0 {
						req.FailedMaps = []int{int(b>>4) % 3}
					}
					tb.complete(req, now)
				}
			case 4: // time passes: heartbeats age, leases may expire
				now += time.Duration(b) * 10 * time.Millisecond
				tb.sweep(now)
			case 5: // register another worker
				addID()
			}
		}

		tb.mu.Lock()
		finished := j.finished()
		failure := j.failure
		tb.mu.Unlock()
		if failure != nil {
			t.Fatalf("job failed under unbounded attempts: %v", failure)
		}
		if !finished {
			// Drain with one fresh, healthy worker far in the future: every
			// blacklist window has passed, so the job must complete.
			now += 100 * cfg.BlacklistBase
			id, err := tb.register("drain:1", nil, now)
			if err != nil {
				t.Skip("worker capacity exhausted by fuzz schedule")
			}
			drain(t, tb, id, now)
		}
		out, err := tb.result()
		if err != nil {
			t.Fatal(err)
		}
		if out.MapInputRecords != 3 {
			t.Fatalf("MapInputRecords = %d, want one count per map (3)", out.MapInputRecords)
		}
		if len(out.KVs) != 2 {
			t.Fatalf("output = %v, want one record per reduce", out.KVs)
		}
		for i, kv := range out.KVs {
			if kv.Key != fmt.Sprintf("r%d", i) {
				t.Fatalf("KVs[%d] = %+v, not in reduce order", i, kv)
			}
		}
	})
}
