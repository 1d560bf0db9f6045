package dist_test

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"yafim/internal/cluster"
	"yafim/internal/dataset"
	"yafim/internal/dfs"
	"yafim/internal/dist"
	"yafim/internal/mapreduce"
	"yafim/internal/obs"
	"yafim/internal/son"
)

// TestSONMasterWorkersMatchSim sends SON's job types over the wire: the
// local-mining candidate job and MRApriori's counting job run as leased
// tasks on two loopback workers, and the frequent itemsets must equal the
// ones the same entry point mines on the simulator through dist.Local.
func TestSONMasterWorkersMatchSim(t *testing.T) {
	db := syntheticDB(600)
	cfg := son.Config{MinSupport: 0.15, NumReducers: 3, NumMapTasks: 4}

	fs := dfs.New(4)
	if _, err := dataset.Stage(fs, "/data/synthetic.dat", db); err != nil {
		t.Fatal(err)
	}
	runner, err := mapreduce.NewRunner(fs, cluster.Local())
	if err != nil {
		t.Fatal(err)
	}
	want, err := son.Mine(context.Background(), dist.NewLocal(runner, fs), "/data/synthetic.dat", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Result.MaxK() < 3 {
		t.Fatalf("simulator found itemsets up to length %d only; dataset too thin", want.Result.MaxK())
	}

	input := filepath.Join(t.TempDir(), "synthetic.dat")
	if err := dataset.SaveFile(db, input); err != nil {
		t.Fatal(err)
	}
	master, err := dist.StartMaster(dist.MasterOptions{Addr: "127.0.0.1:0", Tuning: dist.Tuning{
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  400 * time.Millisecond,
		LeaseDeadline:     20 * time.Second,
	}, Log: obs.NewEventLog(nil), Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	workerCtx, stopWorkers := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer func() {
		stopWorkers()
		wg.Wait()
	}()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := dist.RunWorker(workerCtx, dist.WorkerOptions{MasterURL: master.URL()}); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	waitFor(t, 10*time.Second, "2 workers to register", func() bool {
		return master.LiveWorkers() == 2
	})

	got, err := son.Mine(ctx, master, input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Result.Equal(want.Result) {
		t.Fatalf("distributed SON diverges from the simulator: %d vs %d frequent itemsets",
			got.Result.NumFrequent(), want.Result.NumFrequent())
	}
}
