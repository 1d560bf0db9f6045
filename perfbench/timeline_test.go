package main

import (
	"math"
	"strings"
	"testing"

	"yafim"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// One job of two maps and one reduce on two workers, stamped by hand. Task
// carries the index offset by one, as the runtime writes it.
func TestReduceTimelineHandBuilt(t *testing.T) {
	events := []yafim.LiveEvent{
		{TsMs: 5, Event: "worker_register", Worker: 1},
		{TsMs: 100, Event: "job_start", Seq: 1},
		{TsMs: 150, Event: "lease_grant", Worker: 1, Seq: 1, Phase: "map", Task: 1, Attempt: 1},
		{TsMs: 160, Event: "task_start", Worker: 1, Seq: 1, Phase: "map", Task: 1, Attempt: 1},
		{TsMs: 350, Event: "lease_grant", Worker: 2, Seq: 1, Phase: "map", Task: 2, Attempt: 1,
			Detail: "cached locally"},
		{TsMs: 400, Event: "task_complete", Worker: 1, Seq: 1, Phase: "map", Task: 1, Attempt: 1},
		{TsMs: 600, Event: "task_complete", Worker: 2, Seq: 1, Phase: "map", Task: 2, Attempt: 1},
		{TsMs: 700, Event: "heartbeat_miss", Worker: 2},
		{TsMs: 850, Event: "lease_grant", Worker: 1, Seq: 1, Phase: "reduce", Task: 1, Attempt: 1},
		{TsMs: 900, Event: "task_complete", Worker: 1, Seq: 1, Phase: "reduce", Task: 1, Attempt: 1},
	}
	tl, err := reduceTimeline(events)
	if err != nil {
		t.Fatal(err)
	}
	// Maps busy 150->400 and 350->600; the reduce 850->900.
	if !near(tl.MapS, 0.5) || !near(tl.ReduceS, 0.05) {
		t.Errorf("map_s %v reduce_s %v, want 0.5 and 0.05", tl.MapS, tl.ReduceS)
	}
	// Maps wait from job_start (100): 50 + 250 ms; the reduce from the last
	// map completion (600): 250 ms.
	if !near(tl.LeaseWaitS, 0.55) {
		t.Errorf("lease_wait_s %v, want 0.55", tl.LeaseWaitS)
	}
	if tl.MapGrants != 2 || tl.ReduceGrants != 1 || tl.LocalGrants != 1 {
		t.Errorf("grants map %d reduce %d local %d, want 2 1 1", tl.MapGrants, tl.ReduceGrants, tl.LocalGrants)
	}
}

// A retried attempt is timed from its own grant, and a second job's reduce
// waits on that job's maps, not the first job's.
func TestReduceTimelineAttemptsAndJobs(t *testing.T) {
	events := []yafim.LiveEvent{
		{TsMs: 0, Event: "job_start", Seq: 1},
		{TsMs: 10, Event: "lease_grant", Worker: 1, Seq: 1, Phase: "map", Task: 1, Attempt: 1},
		{TsMs: 20, Event: "lease_grant", Worker: 2, Seq: 1, Phase: "map", Task: 1, Attempt: 2},
		{TsMs: 50, Event: "task_complete", Worker: 2, Seq: 1, Phase: "map", Task: 1, Attempt: 2},
		{TsMs: 60, Event: "lease_grant", Worker: 2, Seq: 1, Phase: "reduce", Task: 1, Attempt: 1},
		{TsMs: 70, Event: "task_complete", Worker: 2, Seq: 1, Phase: "reduce", Task: 1, Attempt: 1},
		{TsMs: 1000, Event: "job_start", Seq: 2},
		{TsMs: 1010, Event: "lease_grant", Worker: 1, Seq: 2, Phase: "map", Task: 1, Attempt: 1},
		{TsMs: 1100, Event: "task_complete", Worker: 1, Seq: 2, Phase: "map", Task: 1, Attempt: 1},
		{TsMs: 1120, Event: "lease_grant", Worker: 1, Seq: 2, Phase: "reduce", Task: 1, Attempt: 1},
		{TsMs: 1130, Event: "task_complete", Worker: 1, Seq: 2, Phase: "reduce", Task: 1, Attempt: 1},
	}
	tl, err := reduceTimeline(events)
	if err != nil {
		t.Fatal(err)
	}
	if !near(tl.MapS, 0.03+0.09) || !near(tl.ReduceS, 0.01+0.01) {
		t.Errorf("map_s %v reduce_s %v, want 0.12 and 0.02", tl.MapS, tl.ReduceS)
	}
	if !near(tl.LeaseWaitS, 0.010+0.020+0.010+0.010+0.020) {
		t.Errorf("lease_wait_s %v, want 0.07", tl.LeaseWaitS)
	}
}

func TestReduceTimelineRejectsOrphans(t *testing.T) {
	for name, events := range map[string][]yafim.LiveEvent{
		"completion without grant": {
			{TsMs: 0, Event: "job_start", Seq: 1},
			{TsMs: 5, Event: "task_complete", Seq: 1, Phase: "map", Task: 1, Attempt: 1},
		},
		"reduce before any map": {
			{TsMs: 0, Event: "job_start", Seq: 1},
			{TsMs: 5, Event: "lease_grant", Seq: 1, Phase: "reduce", Task: 1, Attempt: 1},
		},
		"map grant without job": {
			{TsMs: 5, Event: "lease_grant", Seq: 3, Phase: "map", Task: 1, Attempt: 1},
		},
	} {
		if _, err := reduceTimeline(events); err == nil || !strings.HasPrefix(err.Error(), "timeline:") {
			t.Errorf("%s: err = %v, want a timeline error", name, err)
		}
	}
}
