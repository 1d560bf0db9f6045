package sim

import (
	"testing"
	"time"

	"yafim/internal/cluster"
)

func placedTasks(n int) []Placed {
	tasks := make([]Placed, n)
	for i := range tasks {
		tasks[i] = Placed{Cost: Cost{CPUOps: float64(1000 * (i + 1))}}
	}
	return tasks
}

// TestPlaceTasksScheduleConsistent checks the schedule the telemetry layer
// records: placements are indexed like the tasks, intervals never overlap on
// a core, and the returned makespan is exactly the latest task end.
func TestPlaceTasksScheduleConsistent(t *testing.T) {
	cfg := cluster.Local()
	tasks := placedTasks(17)
	placements, _, length := PlaceTasksOpts(cfg, tasks, StageOpts{})
	if len(placements) != len(tasks) {
		t.Fatalf("placements = %d, want %d", len(placements), len(tasks))
	}
	var latest time.Duration
	type core struct{ node, core int }
	byCore := map[core][]TaskPlacement{}
	for i, pl := range placements {
		if pl.Task != i {
			t.Fatalf("placements[%d].Task = %d", i, pl.Task)
		}
		if pl.Start < 0 || pl.End < pl.Start {
			t.Fatalf("invalid interval: %+v", pl)
		}
		if pl.Node < 0 || pl.Node >= cfg.Nodes || pl.Core < 0 || pl.Core >= cfg.CoresPerNode {
			t.Fatalf("placement off the cluster: %+v", pl)
		}
		if pl.End > latest {
			latest = pl.End
		}
		byCore[core{pl.Node, pl.Core}] = append(byCore[core{pl.Node, pl.Core}], pl)
	}
	if latest != length {
		t.Fatalf("schedule length = %v, latest task end = %v", length, latest)
	}
	for c, pls := range byCore {
		for _, a := range pls {
			for _, b := range pls {
				if a.Task == b.Task {
					continue
				}
				if a.Start < b.End && b.Start < a.End {
					t.Fatalf("core %+v runs overlapping tasks %+v and %+v", c, a, b)
				}
			}
		}
	}

	// The same schedule drives the report path.
	rep, pls2, _ := RunStageResilient(cfg, "s", tasks, StageOpts{})
	if rep.Makespan != cfg.StageOverhead+length || rep.Tasks != len(tasks) {
		t.Fatalf("report = %+v", rep)
	}
	for i := range placements {
		if placements[i] != pls2[i] {
			t.Fatalf("schedule differs between PlaceTasksOpts and RunStageResilient at %d", i)
		}
	}
}

func TestPlaceTasksDeterministic(t *testing.T) {
	cfg := cluster.Local()
	a, _, ma := PlaceTasksOpts(cfg, placedTasks(23), StageOpts{})
	b, _, mb := PlaceTasksOpts(cfg, placedTasks(23), StageOpts{})
	if ma != mb {
		t.Fatalf("makespans differ: %v vs %v", ma, mb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
