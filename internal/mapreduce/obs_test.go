package mapreduce

import (
	"context"
	"testing"

	"yafim/internal/cluster"
	"yafim/internal/obs"
)

// TestRecorderJobSpansAndCounters runs item count with a telemetry recorder
// on both the runner and the DFS and checks the recorded span tree and the
// engine-level counters.
func TestRecorderJobSpansAndCounters(t *testing.T) {
	fs := setupFS(t, 16, corpus) // tiny blocks: several map tasks
	rec := obs.New()
	fs.SetRecorder(rec)
	r := NewRunnerMust(t, cluster.Local(), fs)
	r.SetRecorder(rec)
	rep, _, err := r.RunContext(context.Background(), itemCountJob(false))
	if err != nil {
		t.Fatal(err)
	}

	jobs := rec.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("job spans = %d, want 1", len(jobs))
	}
	job := jobs[0]
	if job.Engine != "mapreduce" || job.Name != "itemcount" {
		t.Fatalf("job span = %+v", job)
	}
	if job.Overhead != rep.Overhead || job.Duration() != rep.Duration() {
		t.Fatalf("span timing (%v, %v) != report (%v, %v)",
			job.Overhead, job.Duration(), rep.Overhead, rep.Duration())
	}
	if len(job.Stages) != 2 {
		t.Fatalf("stage spans = %d, want map + reduce", len(job.Stages))
	}
	for s, st := range job.Stages {
		if st.Makespan != rep.Stages[s].Makespan || len(st.Tasks) != rep.Stages[s].Tasks {
			t.Fatalf("stage %d span %+v vs report %+v", s, st, rep.Stages[s])
		}
		cfg := r.Config()
		for _, task := range st.Tasks {
			if task.Node < 0 || task.Node >= cfg.Nodes ||
				task.Core < 0 || task.Core >= cfg.CoresPerNode {
				t.Fatalf("task off the cluster: %+v", task)
			}
			if task.Attempts != 1 {
				t.Fatalf("clean run reported retries: %+v", task)
			}
		}
	}

	c := rec.Counters()
	if c.ShuffleBytes <= 0 {
		t.Fatalf("shuffle bytes = %d, want > 0", c.ShuffleBytes)
	}
	if c.DFSReadBytes <= 0 || c.DFSWriteBytes <= 0 {
		t.Fatalf("dfs bytes = read %d write %d, want both > 0", c.DFSReadBytes, c.DFSWriteBytes)
	}
	// Map splits carry block locations, so every map task has a locality
	// outcome recorded.
	if c.LocalityLocal+c.LocalityRemote != int64(rep.Stages[0].Tasks) {
		t.Fatalf("locality outcomes = %d + %d, want %d map tasks",
			c.LocalityLocal, c.LocalityRemote, rep.Stages[0].Tasks)
	}
	if c.TaskRetries != 0 {
		t.Fatalf("clean run counted retries: %+v", c)
	}
}

// TestRecorderCountsInjectedRetries checks the retry counter against
// failures injected through task code.
func TestRecorderCountsInjectedRetries(t *testing.T) {
	fs := setupFS(t, 16, corpus)
	rec := obs.New()
	r := NewRunnerMust(t, cluster.Local(), fs)
	r.SetRecorder(rec)
	var plan failPlan
	plan.arm(int64(20), 2) // fail task 1 (its split starts at byte 20) twice, succeed third
	if _, _, err := r.RunContext(context.Background(), flakyJob(&plan)); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counters().TaskRetries; got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	jobs := rec.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	if got := jobs[0].Stages[0].Tasks[1].Attempts; got != 3 {
		t.Fatalf("task attempts = %d, want 3", got)
	}
}
