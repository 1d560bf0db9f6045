package vcluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"yafim/internal/chaos"
	"yafim/internal/cluster"
	"yafim/internal/exec"
	"yafim/internal/obs"
	"yafim/internal/sim"
)

// runJob runs one job of a single stage and returns its report.
func runJob(t *testing.T, d *Driver, st Stage, work func(int, *sim.Ledger) error) sim.JobReport {
	t.Helper()
	d.BeginJob(st.Name, 0)
	if _, _, err := d.RunStage(context.Background(), st, work); err != nil {
		t.Fatal(err)
	}
	return d.EndJob()
}

func TestRetriedAttemptIsWastedAndScheduled(t *testing.T) {
	work := func(failFirst bool) func(int, *sim.Ledger) error {
		var failed atomic.Bool
		return func(task int, led *sim.Ledger) error {
			led.AddCPU(1e6)
			if failFirst && task == 0 && !failed.Swap(true) {
				return errors.New("transient")
			}
			return nil
		}
	}
	cfg := cluster.Local()
	rec := obs.New()
	d := New(cfg, "test", nil)
	d.SetRecorder(rec)
	clean := runJob(t, d, Stage{Name: "clean", Tasks: 1}, work(false))
	retried := runJob(t, d, Stage{Name: "retried", Tasks: 1}, work(true))

	c := rec.Counters()
	if c.TaskRetries != 1 || c.WastedCost.CPUOps != 1e6 {
		t.Errorf("retries = %d, wasted = %v; want 1 retry wasting one attempt", c.TaskRetries, c.WastedCost)
	}
	// Both attempts run back to back on one core, plus one relaunch.
	want := cfg.StageOverhead + sim.TaskTime(cfg, sim.Cost{CPUOps: 2e6}) + cfg.TaskLaunch
	if got := retried.Stages[0].Makespan; got != want {
		t.Errorf("retried makespan = %v, want %v (wasted attempt and relaunch scheduled)", got, want)
	}
	if d.NumJobs() != 2 || d.TotalDuration() != clean.Duration()+retried.Duration() {
		t.Errorf("clock: %d jobs, %v total", d.NumJobs(), d.TotalDuration())
	}
}

func TestNoRetryFailsOnFirstAttempt(t *testing.T) {
	gone := errors.New("output gone")
	var calls atomic.Int64
	d := New(cluster.Local(), "test", nil)
	d.BeginJob("j", 0)
	defer d.AbortJob()
	_, _, err := d.RunStage(context.Background(),
		Stage{Name: "s", Tasks: 1, NoRetry: func(err error) bool { return errors.Is(err, gone) }},
		func(int, *sim.Ledger) error { calls.Add(1); return gone })
	var se *exec.StageError
	if !errors.As(err, &se) || !errors.Is(err, gone) {
		t.Fatalf("err = %v, want a StageError wrapping the task's error", err)
	}
	if calls.Load() != 1 {
		t.Errorf("work ran %d times, want once", calls.Load())
	}
}

func TestCrashFiresOnceAtItsTime(t *testing.T) {
	var crashed []int
	d := New(cluster.Local(), "test", func(node int) { crashed = append(crashed, node) })
	d.SetChaos(&chaos.Plan{Crash: &chaos.NodeCrash{Node: 1, At: time.Second}})
	noop := func(int, *sim.Ledger) error { return nil }

	runJob(t, d, Stage{Name: "before", Tasks: 1}, noop)
	if len(crashed) != 0 {
		t.Fatalf("crash fired at %v, before its time", d.TotalDuration())
	}
	d.AddOverhead(time.Second) // charged to the next job
	d.BeginJob("after", 0)
	_, placements, err := d.RunStage(context.Background(), Stage{Name: "after", Tasks: 8}, noop)
	if err != nil {
		t.Fatal(err)
	}
	if _, fired := d.MaybeCrash(); fired || len(crashed) != 1 || crashed[0] != 1 {
		t.Fatalf("crash hook calls = %v, want node 1 exactly once", crashed)
	}
	for _, p := range placements {
		if p.Node == 1 {
			t.Fatal("a task was placed on the dead node")
		}
	}
	if rep := d.EndJob(); rep.Overhead != time.Second {
		t.Errorf("overhead charged while no job was open = %v, want it on the next job", rep.Overhead)
	}
}
