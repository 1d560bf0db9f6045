package dist_test

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"yafim/internal/cluster"
	"yafim/internal/dataset"
	"yafim/internal/dfs"
	"yafim/internal/dist"
	"yafim/internal/mapreduce"
	"yafim/internal/mrapriori"
	"yafim/internal/obs"
)

// TestMasterKillResumeParity is the durable-recovery acceptance test: mine a
// database across two real worker processes, kill the MASTER mid-pass —
// abort semantics, dropping even the journal records buffered since the last
// fsync — then restart it on the same address from the journal. The worker
// processes (which never died, and still hold computed map outputs) must
// reconnect on their own, re-advertise those outputs, and carry the resumed
// run to frequent itemsets byte-identical to the in-memory sim oracle's.
func TestMasterKillResumeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("forks real processes")
	}
	db := syntheticDB(1500)
	cfg := mrapriori.Config{MinSupport: 0.15, NumReducers: 3, NumMapTasks: 4}

	// Sim oracle.
	fs := dfs.New(4)
	if _, err := dataset.Stage(fs, "/data/synthetic.dat", db); err != nil {
		t.Fatal(err)
	}
	runner, err := mapreduce.NewRunner(fs, cluster.Local())
	if err != nil {
		t.Fatal(err)
	}
	want, err := mrapriori.Mine(context.Background(), dist.NewLocal(runner, fs),
		"/data/synthetic.dat", cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	input := filepath.Join(t.TempDir(), "synthetic.dat")
	if err := dataset.SaveFile(db, input); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "master.wal")
	tuning := dist.Tuning{
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  400 * time.Millisecond,
		LeaseDeadline:     20 * time.Second,
	}

	log1 := obs.NewEventLog(nil)
	master, err := dist.StartMaster(dist.MasterOptions{
		Addr: "127.0.0.1:0", Tuning: tuning, Log: log1, Reg: obs.NewRegistry(),
		JournalPath: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := master.Addr() // the restarted master must come back here

	forkWorker(t, master.URL())
	forkWorker(t, master.URL())
	waitFor(t, 10*time.Second, "2 workers to register", func() bool {
		return master.LiveWorkers() == 2
	})

	// Assassin: at the first completed task, kill the master the way SIGKILL
	// would — connections slam shut, unsynced journal tail lost.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for {
			for _, ev := range log1.Events() {
				if ev.Event == "task_complete" {
					master.Abort()
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// First driver attempt runs into the murder; unblock it by canceling.
	dctx, dcancel := context.WithCancel(context.Background())
	driverDone := make(chan error, 1)
	go func() {
		_, err := mrapriori.Mine(dctx, master, input, cfg, nil)
		driverDone <- err
	}()
	select {
	case <-killed:
	case <-time.After(60 * time.Second):
		t.Fatal("assassin never fired: no task completions observed")
	}
	dcancel()
	if err := <-driverDone; err == nil {
		// The whole run beat the assassin; parity still must hold below, but
		// note it so a flaky-fast environment is visible in the log.
		t.Log("driver finished before the master died; resume will be memo-only")
	}

	// Restart from the journal, on the same address the workers keep dialing.
	log2 := obs.NewEventLog(nil)
	master2, err := dist.StartMaster(dist.MasterOptions{
		Addr: addr, Tuning: tuning, Log: log2, Reg: obs.NewRegistry(),
		JournalPath: journal, Resume: true,
	})
	if err != nil {
		t.Fatalf("resume from journal: %v", err)
	}
	defer master2.Close()

	// The surviving worker processes notice the restart (heartbeat/lease gets
	// Rejoin or connection errors) and re-register without any help.
	waitFor(t, 20*time.Second, "workers to rejoin the restarted master", func() bool {
		return master2.LiveWorkers() == 2
	})

	// The resumed driver re-runs the deterministic pass sequence: finished
	// passes return from the journal memo, the in-flight pass is adopted.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	got, err := mrapriori.Mine(ctx, master2, input, cfg, nil)
	if err != nil {
		t.Fatalf("resumed mining failed: %v", err)
	}

	if !got.Result.Equal(want.Result) {
		t.Errorf("resumed itemsets diverge from sim oracle:\n dist %v\n sim  %v",
			got.Result.All(), want.Result.All())
	}
	if got.Result.MinSupport != want.Result.MinSupport {
		t.Errorf("absolute min support: dist %d, sim %d",
			got.Result.MinSupport, want.Result.MinSupport)
	}

	// The second life must show the recovery machinery actually engaged.
	var resumes, rejoins, adoptsOrMemos int
	for _, ev := range log2.Events() {
		switch ev.Event {
		case "master_resume":
			resumes++
		case "worker_register":
			rejoins++
		case "job_adopt", "job_memoized":
			adoptsOrMemos++
		}
	}
	if resumes != 1 {
		t.Errorf("restarted master journaled %d master_resume events, want 1", resumes)
	}
	if rejoins < 2 {
		t.Errorf("restarted master saw %d registrations, want the 2 survivors back", rejoins)
	}
	if adoptsOrMemos == 0 {
		t.Error("no job_adopt or job_memoized event: the journal bought nothing")
	}
	t.Logf("second life: %d rejoins, %d adopt/memo events, %d events total",
		rejoins, adoptsOrMemos, len(log2.Events()))
}
