package sim

import (
	"testing"
	"time"

	"yafim/internal/cluster"
)

func testCfg() cluster.Config {
	return cluster.Config{
		Name:         "test-4n",
		Nodes:        4,
		CoresPerNode: 2,
		CPUOpsPerSec: 1e3,
		DiskBWPerSec: 1e6,
		NetBWPerSec:  1e6,
		TaskLaunch:   time.Millisecond,
	}
}

func uniformTasks(n int, ops float64) []Placed {
	tasks := make([]Placed, n)
	for i := range tasks {
		tasks[i] = Placed{Cost: Cost{CPUOps: ops}}
	}
	return tasks
}

// The zero StageOpts schedules like options that name every node at full
// speed, exclude none and never speculate.
func TestZeroOptsMatchesPlaceTasks(t *testing.T) {
	cfg := testCfg()
	tasks := []Placed{
		{Cost: Cost{CPUOps: 100}, Pref: []int{0}},
		{Cost: Cost{CPUOps: 300}},
		{Cost: Cost{CPUOps: 200, DiskRead: 5000}, Pref: []int{1, 2}},
		{Cost: Cost{CPUOps: 50}},
	}
	neutral := StageOpts{
		NodeFactor: []float64{1, 1, 1, 1},
		Exclude:    []bool{false, false, false, false},
		Spec:       &SpecPolicy{Threshold: 0},
	}
	p1, _, m1 := PlaceTasksOpts(cfg, tasks, neutral)
	p2, stats, m2 := PlaceTasksOpts(cfg, tasks, StageOpts{})
	if m1 != m2 {
		t.Fatalf("makespan differs: %v vs %v", m1, m2)
	}
	if stats != (SpecStats{}) {
		t.Fatalf("zero opts produced speculation stats: %+v", stats)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("placement %d differs: %+v vs %+v", i, p1[i], p2[i])
		}
	}
}

func TestExcludedNodesReceiveNoTasks(t *testing.T) {
	cfg := testCfg()
	tasks := uniformTasks(16, 100)
	exclude := []bool{false, true, false, true}
	placements, _, _ := PlaceTasksOpts(cfg, tasks, StageOpts{Exclude: exclude})
	for _, p := range placements {
		if exclude[p.Node] {
			t.Fatalf("task %d placed on excluded node %d", p.Task, p.Node)
		}
	}
}

func TestExclusionIgnoredWhenTotal(t *testing.T) {
	cfg := testCfg()
	tasks := uniformTasks(4, 100)
	placements, _, _ := PlaceTasksOpts(cfg, tasks, StageOpts{
		Exclude: []bool{true, true, true, true},
	})
	if len(placements) != 4 {
		t.Fatalf("stage with all nodes excluded did not schedule: %d placements", len(placements))
	}
}

func TestStragglerStretchesItsTasks(t *testing.T) {
	cfg := testCfg()
	tasks := uniformTasks(8, 1000) // one per core
	factors := []float64{1, 1, 5, 1}
	placements, _, slowMakespan := PlaceTasksOpts(cfg, tasks, StageOpts{NodeFactor: factors})
	_, _, baseMakespan := PlaceTasksOpts(cfg, tasks, StageOpts{})
	if slowMakespan <= baseMakespan {
		t.Fatalf("straggler makespan %v not above baseline %v", slowMakespan, baseMakespan)
	}
	var onSlow, onFast time.Duration
	for _, p := range placements {
		if p.Node == 2 {
			onSlow = p.End - p.Start
		} else {
			onFast = p.End - p.Start
		}
	}
	if onSlow != 5*onFast {
		t.Fatalf("slow-node task %v, fast-node task %v: want exactly 5x", onSlow, onFast)
	}
}

func TestSpeculationRescuesStraggler(t *testing.T) {
	cfg := testCfg()
	tasks := uniformTasks(8, 1000)
	opts := StageOpts{
		NodeFactor: []float64{1, 1, 10, 1},
		Spec:       &SpecPolicy{Threshold: 1.5, MinTasks: 4},
	}
	placements, stats, specMakespan := PlaceTasksOpts(cfg, tasks, opts)
	if stats.Launched == 0 || stats.Won == 0 {
		t.Fatalf("no speculative wins against a 10x straggler: %+v", stats)
	}
	noSpec := opts
	noSpec.Spec = nil
	_, _, plainMakespan := PlaceTasksOpts(cfg, tasks, noSpec)
	if specMakespan >= plainMakespan {
		t.Fatalf("speculation did not shorten the stage: %v vs %v", specMakespan, plainMakespan)
	}
	for _, p := range placements {
		if p.Node == 2 {
			t.Fatalf("task %d still finishing on the straggler node", p.Task)
		}
	}
}

func TestSpeculationSkipsSmallStages(t *testing.T) {
	cfg := testCfg()
	tasks := uniformTasks(2, 1000)
	_, stats, _ := PlaceTasksOpts(cfg, tasks, StageOpts{
		NodeFactor: []float64{10, 1, 1, 1},
		Spec:       &SpecPolicy{Threshold: 1.5, MinTasks: 4},
	})
	if stats.Launched != 0 {
		t.Fatalf("speculated in a stage below MinTasks: %+v", stats)
	}
}

func TestSpeculationDeterministic(t *testing.T) {
	cfg := testCfg()
	tasks := uniformTasks(12, 700)
	opts := StageOpts{
		NodeFactor: []float64{1, 6, 1, 1},
		Spec:       &SpecPolicy{Threshold: 1.5, MinTasks: 4},
	}
	p1, s1, m1 := PlaceTasksOpts(cfg, tasks, opts)
	p2, s2, m2 := PlaceTasksOpts(cfg, tasks, opts)
	if m1 != m2 || s1 != s2 {
		t.Fatalf("schedule not deterministic: %v/%v vs %v/%v", m1, s1, m2, s2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("placement %d differs across identical runs", i)
		}
	}
}

func TestRelaunchesChargeTaskLaunch(t *testing.T) {
	cfg := testCfg()
	base := TaskTime(cfg, Cost{CPUOps: 100})
	placements, _, _ := PlaceTasksOpts(cfg, []Placed{
		{Cost: Cost{CPUOps: 100}, Relaunches: 3},
	}, StageOpts{})
	got := placements[0].End - placements[0].Start
	want := base + 3*cfg.TaskLaunch
	if got != want {
		t.Fatalf("relaunched task duration %v, want %v", got, want)
	}
}

func TestTaskTimePanicsOnBadConfig(t *testing.T) {
	bad := testCfg()
	bad.CPUOpsPerSec = 0
	defer func() {
		if recover() == nil {
			t.Fatal("TaskTime accepted a zero CPUOpsPerSec config")
		}
	}()
	TaskTime(bad, Cost{CPUOps: 1})
}

func TestTaskTimePanicsOnNegativeBandwidth(t *testing.T) {
	bad := testCfg()
	bad.NetBWPerSec = -1
	defer func() {
		if recover() == nil {
			t.Fatal("TaskTime accepted a negative NetBWPerSec config")
		}
	}()
	TaskTime(bad, Cost{Net: 1})
}

func TestRunStageResilientReportsTotals(t *testing.T) {
	cfg := testCfg()
	tasks := uniformTasks(8, 500)
	rep, placements, _ := RunStageResilient(cfg, "s", tasks, StageOpts{})
	if rep.Tasks != 8 || len(placements) != 8 {
		t.Fatalf("report tasks=%d placements=%d, want 8", rep.Tasks, len(placements))
	}
	if rep.Total.CPUOps != 4000 {
		t.Fatalf("total CPU ops %v, want 4000", rep.Total.CPUOps)
	}
	plainPl, _, length := PlaceTasksOpts(cfg, tasks, StageOpts{})
	if rep.Makespan != cfg.StageOverhead+length || len(plainPl) != len(placements) {
		t.Fatalf("zero-opts resilient stage diverges from PlaceTasksOpts")
	}
}
