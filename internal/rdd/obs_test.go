package rdd

import (
	"errors"
	"testing"

	"yafim/internal/obs"
	"yafim/internal/shuffle"
	"yafim/internal/sim"
)

func TestRecorderCacheCounters(t *testing.T) {
	rec := obs.New()
	ctx := newTestContext(t, WithRecorder(rec))
	base := Parallelize(ctx, "nums", ints(40), 4).Cache()
	for i := 0; i < 2; i++ {
		if _, err := Collect(base); err != nil {
			t.Fatal(err)
		}
	}
	c := rec.Counters()
	if c.CacheMisses != 4 || c.CacheHits != 4 {
		t.Fatalf("after warm run: misses = %d hits = %d, want 4 and 4", c.CacheMisses, c.CacheHits)
	}
	if c.LineageRecomputes != 0 || c.CacheEvictions != 0 {
		t.Fatalf("warm run recorded recomputes/evictions: %+v", c)
	}

	ctx.dropAllCaches()
	if got := rec.Counters().CacheEvictions; got != 4 {
		t.Fatalf("evictions after dropAllCaches = %d, want 4", got)
	}
	if _, err := Collect(base); err != nil {
		t.Fatal(err)
	}
	c = rec.Counters()
	if c.LineageRecomputes != 4 {
		t.Fatalf("recomputes after cache drop = %d, want 4", c.LineageRecomputes)
	}
	if c.CacheMisses != 8 {
		t.Fatalf("misses after cache drop = %d, want 8", c.CacheMisses)
	}
}

func TestRecorderKillNodeCounters(t *testing.T) {
	rec := obs.New()
	ctx := newTestContext(t, WithRecorder(rec))
	base := Parallelize(ctx, "nums", ints(40), 4).Cache()
	if _, err := Collect(base); err != nil {
		t.Fatal(err)
	}
	// Partitions 0 and 2 are resident on node 0 of the 2-node local cluster.
	ctx.KillNode(0)
	if got := rec.Counters().CacheEvictions; got != 2 {
		t.Fatalf("evictions after node kill = %d, want 2", got)
	}
	if _, err := Collect(base); err != nil {
		t.Fatal(err)
	}
	c := rec.Counters()
	if c.LineageRecomputes != 2 {
		t.Fatalf("recomputes after node kill = %d, want 2", c.LineageRecomputes)
	}
	if c.CacheHits != 2 {
		t.Fatalf("surviving-partition hits = %d, want 2", c.CacheHits)
	}
}

// TestRecorderRetryCounters checks that a failed attempt surfaces everywhere
// the telemetry promises: the retry counter, the wasted cost, the task
// span's attempt count, and the scheduled task cost (the retried task holds
// its core for the failed attempt plus the successful one).
func TestRecorderRetryCounters(t *testing.T) {
	rec := obs.New()
	ctx := newTestContext(t, WithRecorder(rec))
	failed := false // touched only by partition 1's worker, attempts run serially
	r := newRDD(ctx, "flaky", 2, nil, func(p int, led *sim.Ledger) ([]int, error) {
		led.AddCPU(100)
		if p == 1 && !failed {
			failed = true
			return nil, errors.New("injected")
		}
		return []int{p}, nil
	})
	if _, err := Collect(r); err != nil {
		t.Fatal(err)
	}
	c := rec.Counters()
	if c.TaskRetries != 1 {
		t.Fatalf("retries = %d, want 1", c.TaskRetries)
	}
	if c.WastedCost.CPUOps != 100 {
		t.Fatalf("wasted cost = %+v, want 100 cpu ops", c.WastedCost)
	}
	jobs := rec.Jobs()
	if len(jobs) != 1 || len(jobs[0].Stages) != 1 {
		t.Fatalf("spans = %+v", jobs)
	}
	task := jobs[0].Stages[0].Tasks[1]
	if task.Attempts != 2 {
		t.Fatalf("task attempts = %d, want 2", task.Attempts)
	}
	if task.Cost.CPUOps != 200 {
		t.Fatalf("scheduled task cost = %+v, want wasted + successful = 200", task.Cost)
	}
	if jobs[0].Stages[0].Tasks[0].Attempts != 1 {
		t.Fatal("clean task reported extra attempts")
	}
}

func TestRecorderBroadcastCounters(t *testing.T) {
	rec := obs.New()
	ctx := newTestContext(t, WithRecorder(rec))
	r := Parallelize(ctx, "n", ints(8), 4)
	bc := NewBroadcast(ctx, "payload", 1<<20)
	use := MapPartitions(r, "use", func(p int, rows []int, led *sim.Ledger) ([]int, error) {
		_ = bc.Acquire(led)
		return rows, nil
	})
	if _, err := Collect(use); err != nil {
		t.Fatal(err)
	}
	c := rec.Counters()
	if c.BroadcastBytes != 1<<20 || c.NaiveShipBytes != 0 {
		t.Fatalf("broadcast mode: broadcast = %d naive = %d", c.BroadcastBytes, c.NaiveShipBytes)
	}

	recN := obs.New()
	ctxN := newTestContext(t, WithRecorder(recN), WithoutBroadcast())
	rN := Parallelize(ctxN, "n", ints(8), 4)
	bcN := NewBroadcast(ctxN, "payload", 1<<20)
	useN := MapPartitions(rN, "use", func(p int, rows []int, led *sim.Ledger) ([]int, error) {
		_ = bcN.Acquire(led)
		return rows, nil
	})
	if _, err := Collect(useN); err != nil {
		t.Fatal(err)
	}
	cN := recN.Counters()
	if cN.NaiveShipBytes != 4<<20 || cN.BroadcastBytes != 0 {
		t.Fatalf("naive mode: broadcast = %d naive = %d", cN.BroadcastBytes, cN.NaiveShipBytes)
	}
}

func TestRecorderShuffleBytes(t *testing.T) {
	rec := obs.New()
	ctx := newTestContext(t, WithRecorder(rec))
	pairs := Parallelize(ctx, "pairs", []shuffle.Pair[string, int]{
		{Key: "a", Value: 1}, {Key: "b", Value: 2}, {Key: "a", Value: 3}, {Key: "c", Value: 4}, {Key: "b", Value: 5},
	}, 3)
	sum := ReduceByKey(pairs, "sum", func(a, b int) int { return a + b }, 2)
	if _, err := Collect(sum); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counters().ShuffleBytes; got <= 0 {
		t.Fatalf("shuffle bytes = %d, want > 0", got)
	}
}

func TestRecorderLocalityCounters(t *testing.T) {
	rec := obs.New()
	ctx := newTestContext(t, WithRecorder(rec))
	r := Parallelize(ctx, "n", ints(16), 4)
	// Pin every partition's input to node 0 so the schedule must make a
	// local-versus-remote call for each task.
	r.prefs = [][]int{{0}, {0}, {0}, {0}}
	if _, err := Collect(r); err != nil {
		t.Fatal(err)
	}
	c := rec.Counters()
	if c.LocalityLocal+c.LocalityRemote != 4 {
		t.Fatalf("locality outcomes = %d local + %d remote, want 4 total",
			c.LocalityLocal, c.LocalityRemote)
	}
}

// TestRecorderSpansMatchReports checks that the recorded span tree mirrors
// the engine's job reports: same jobs, same stages, tasks on real cores.
func TestRecorderSpansMatchReports(t *testing.T) {
	rec := obs.New()
	ctx := newTestContext(t, WithRecorder(rec))
	r := Parallelize(ctx, "nums", ints(30), 5)
	if _, err := Collect(r); err != nil {
		t.Fatal(err)
	}
	if _, err := Count(r); err != nil {
		t.Fatal(err)
	}
	jobs := rec.Jobs()
	reps := ctx.Reports()
	if len(jobs) != len(reps) {
		t.Fatalf("spans = %d jobs, reports = %d", len(jobs), len(reps))
	}
	cfg := ctx.Config()
	for i, job := range jobs {
		if job.Engine != "rdd" || job.Name != reps[i].Name {
			t.Fatalf("job %d = %+v, report %+v", i, job, reps[i])
		}
		if job.Duration() != reps[i].Duration() {
			t.Fatalf("job %d span duration %v != report %v", i, job.Duration(), reps[i].Duration())
		}
		if len(job.Stages) != len(reps[i].Stages) {
			t.Fatalf("job %d stages = %d, report %d", i, len(job.Stages), len(reps[i].Stages))
		}
		for s, st := range job.Stages {
			if st.Makespan != reps[i].Stages[s].Makespan || len(st.Tasks) != reps[i].Stages[s].Tasks {
				t.Fatalf("stage %d/%d span %+v vs report %+v", i, s, st, reps[i].Stages[s])
			}
			for _, task := range st.Tasks {
				if task.Node < 0 || task.Node >= cfg.Nodes ||
					task.Core < 0 || task.Core >= cfg.CoresPerNode {
					t.Fatalf("task off the cluster: %+v", task)
				}
				if task.End < task.Start || task.Start < 0 {
					t.Fatalf("task interval invalid: %+v", task)
				}
			}
		}
	}
}
