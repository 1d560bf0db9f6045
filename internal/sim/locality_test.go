package sim

import (
	"testing"
	"time"
)

func TestMakespanPlacedLocalitySatisfied(t *testing.T) {
	// With as many tasks as cores and balanced preferences, every task runs
	// locally and the makespan equals the unplaced one.
	cfg := testConfig(2, 2)
	tasks := make([]Placed, 4)
	plain := make([]Placed, 4)
	for i := range tasks {
		c := Cost{CPUOps: 1e6, DiskRead: 1000}
		tasks[i] = Placed{Cost: c, Pref: []int{i % 2}}
		plain[i] = Placed{Cost: c}
	}
	if got, want := makespan(cfg, tasks), makespan(cfg, plain); got != want {
		t.Fatalf("local schedule %v != unplaced %v", got, want)
	}
}

func TestMakespanPlacedRemotePenalty(t *testing.T) {
	// All tasks prefer node 0 of a 2-node cluster; half must run remotely
	// and pay to pull their input over the network, so the placed makespan
	// exceeds the unplaced one.
	cfg := testConfig(2, 1)
	cfg.TaskLaunch = time.Millisecond
	tasks := make([]Placed, 8)
	plain := make([]Placed, 8)
	for i := range tasks {
		c := Cost{CPUOps: 1e6, DiskRead: 500e3}
		tasks[i] = Placed{Cost: c, Pref: []int{0}}
		plain[i] = Placed{Cost: c}
	}
	placed := makespan(cfg, tasks)
	unplaced := makespan(cfg, plain)
	if placed <= unplaced {
		t.Fatalf("remote reads not penalised: placed %v <= unplaced %v", placed, unplaced)
	}
}

// A task that prefers every node is local wherever it runs, so it
// schedules exactly like a task with no preference.
func TestMakespanPlacedNoPrefsMatchesMakespan(t *testing.T) {
	cfg := testConfig(3, 2)
	var tasks, plain []Placed
	for i := 0; i < 20; i++ {
		c := Cost{CPUOps: float64(i) * 1e5, DiskRead: int64(i) * 1e3}
		tasks = append(tasks, Placed{Cost: c, Pref: []int{0, 1, 2}})
		plain = append(plain, Placed{Cost: c})
	}
	if got, want := makespan(cfg, tasks), makespan(cfg, plain); got != want {
		t.Fatalf("everywhere-local schedule %v != prefs-free %v", got, want)
	}
}

func TestMakespanPlacedEmptyAndDeterministic(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.StageOverhead = 5 * time.Millisecond
	if got := makespan(cfg, nil); got != 5*time.Millisecond {
		t.Fatalf("empty stage = %v", got)
	}
	tasks := make([]Placed, 30)
	for i := range tasks {
		tasks[i] = Placed{Cost: Cost{CPUOps: float64((i * 131) % 7e5), DiskRead: int64(i)}, Pref: []int{i % 2}}
	}
	first := makespan(cfg, tasks)
	for i := 0; i < 5; i++ {
		if got := makespan(cfg, tasks); got != first {
			t.Fatalf("non-deterministic: %v vs %v", got, first)
		}
	}
}

func TestRunStagePlacedAggregates(t *testing.T) {
	cfg := testConfig(2, 2)
	rep, _, _ := RunStageResilient(cfg, "map", []Placed{
		{Cost: Cost{CPUOps: 5}}, {Cost: Cost{CPUOps: 7}, Pref: []int{1}},
	}, StageOpts{})
	if rep.Tasks != 2 || rep.Total.CPUOps != 12 || rep.Makespan <= 0 {
		t.Fatalf("report = %+v", rep)
	}
}
