// Real multi-OS-process tests: TestMain re-execs this test binary as a
// worker process when the master-URL environment variable is set, the
// standard re-exec trick for process-level harnesses. The mining job types
// are registered by importing mrapriori, in the worker children exactly as
// in the driver.
package dist_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	osexec "os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"yafim/internal/cluster"
	"yafim/internal/dataset"
	"yafim/internal/dfs"
	"yafim/internal/dist"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/mrapriori"
	"yafim/internal/obs"
)

// workerEnv carries the master URL into forked worker processes.
const workerEnv = "YAFIM_DIST_TEST_WORKER"

func TestMain(m *testing.M) {
	if master := os.Getenv(workerEnv); master != "" {
		// This process is a forked worker: serve until killed or drained.
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
		defer stop()
		if err := dist.RunWorker(ctx, dist.WorkerOptions{MasterURL: master}); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// procWorker is one forked worker process.
type procWorker struct {
	cmd *osexec.Cmd
	out *bytes.Buffer
}

// forkWorker starts this test binary as a worker process for masterURL.
func forkWorker(t *testing.T, masterURL string) *procWorker {
	t.Helper()
	var out bytes.Buffer
	cmd := osexec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), workerEnv+"="+masterURL)
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w := &procWorker{cmd: cmd, out: &out}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
		}
		if t.Failed() && out.Len() > 0 {
			t.Logf("worker %d output:\n%s", cmd.Process.Pid, out.String())
		}
	})
	return w
}

// syntheticDB builds a deterministic transaction database with planted
// frequent patterns several levels deep plus hash-spread noise items.
func syntheticDB(rows int) *itemset.DB {
	patterns := [][]itemset.Item{
		{1, 2, 3}, {1, 2, 3, 4}, {2, 3, 5}, {6, 7}, {1, 6},
	}
	data := make([][]itemset.Item, rows)
	for i := range data {
		row := append([]itemset.Item(nil), patterns[i%len(patterns)]...)
		// Two pseudo-random noise items per row, fixed arithmetic so every
		// run (and every process) builds the identical database.
		row = append(row, itemset.Item(10+(i*7)%23), itemset.Item(40+(i*13)%31))
		data[i] = row
	}
	return itemset.NewDB("synthetic", data)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestKillWorkerMidMiningParity is the tentpole acceptance test: mine a
// database across two real worker processes, SIGKILL one mid-pass, and
// require the surviving worker to carry the run to completion with frequent
// itemsets byte-identical to the in-memory sim oracle's.
func TestKillWorkerMidMiningParity(t *testing.T) {
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
	if len(want.Result.Levels) < 3 {
		t.Fatalf("oracle found only %d levels; dataset too thin to exercise recovery", len(want.Result.Levels))
	}

	// Real input file for the worker processes.
	input := filepath.Join(t.TempDir(), "synthetic.dat")
	if err := dataset.SaveFile(db, input); err != nil {
		t.Fatal(err)
	}

	log := obs.NewEventLog(nil)
	master, err := dist.StartMaster(dist.MasterOptions{Addr: "127.0.0.1:0", Tuning: dist.Tuning{
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  400 * time.Millisecond,
		LeaseDeadline:     20 * time.Second,
	}, Log: log, Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	victim := forkWorker(t, master.URL())
	forkWorker(t, master.URL())
	waitFor(t, 10*time.Second, "2 workers to register", func() bool {
		return master.LiveWorkers() == 2
	})

	// Assassin: the moment real task flow is visible, SIGKILL one worker —
	// no drain, no goodbye, the process and its served map outputs vanish.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for {
			for _, ev := range log.Events() {
				if ev.Event == "task_complete" {
					victim.cmd.Process.Kill() //nolint:errcheck
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	got, err := mrapriori.Mine(ctx, master, input, cfg, nil)
	if err != nil {
		t.Fatalf("distributed mining failed after worker kill: %v", err)
	}
	select {
	case <-killed:
	case <-time.After(time.Second):
		t.Fatal("assassin never fired: no task completions observed")
	}

	if !got.Result.Equal(want.Result) {
		t.Errorf("distributed itemsets diverge from sim oracle:\n dist %v\n sim  %v",
			got.Result.All(), want.Result.All())
	}
	if got.Result.MinSupport != want.Result.MinSupport {
		t.Errorf("absolute min support: dist %d, sim %d",
			got.Result.MinSupport, want.Result.MinSupport)
	}

	// The liveness monitor must have noticed the murder.
	waitFor(t, 5*time.Second, "master to declare the victim dead", func() bool {
		return master.LiveWorkers() == 1
	})
	var deaths, recovered int
	for _, ev := range log.Events() {
		switch ev.Event {
		case "worker_dead":
			deaths++
		case "map_output_lost", "task_reassign":
			recovered++
		}
	}
	if deaths == 0 {
		t.Error("journal shows no worker_dead event")
	}
	t.Logf("journal: %d deaths, %d recovery actions, %d events total",
		deaths, recovered, len(log.Events()))
}

// TestWorkerDrainsOnSIGTERM checks the graceful half of shutdown: a worker
// told to terminate finishes cleanly with exit status 0.
func TestWorkerDrainsOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("forks real processes")
	}
	master, err := dist.StartMaster(dist.MasterOptions{Addr: "127.0.0.1:0", Tuning: dist.Tuning{}})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	w := forkWorker(t, master.URL())
	waitFor(t, 10*time.Second, "worker to register", func() bool {
		return master.LiveWorkers() == 1
	})
	if err := w.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker exited uncleanly: %v\n%s", err, w.out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not drain within 10s of SIGTERM")
	}
}
