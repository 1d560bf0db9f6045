package sim

import (
	"time"

	"yafim/internal/cluster"
)

// Placed is a task cost with optional data-locality preferences: the nodes
// holding a local replica of the task's input. An empty Pref means the task
// can run anywhere at no penalty (e.g. shuffle reads, already remote).
// Relaunches counts failed prior attempts of the task; each one charges an
// extra cfg.TaskLaunch for re-spawning the task's container, which is how
// the per-attempt JVM respawn cost of MapReduce (300 ms) versus Spark's
// resident executors (4 ms) enters the fault-recovery comparison.
type Placed struct {
	Cost
	Pref       []int
	Relaunches int
}

// TaskPlacement describes where and when the deterministic schedule ran one
// task: the node and (node-local) core it was assigned, its start and end
// offsets relative to the start of the stage body (i.e. after the fixed
// per-stage scheduling overhead), and whether it read its input remotely.
// This is the per-task detail the telemetry layer turns into trace spans.
type TaskPlacement struct {
	Task   int // index into the stage's task list
	Node   int
	Core   int // core within Node
	Start  time.Duration
	End    time.Duration
	Remote bool
}

// localityWait is how long a task will queue behind a busy preferred node
// before accepting a remote slot — Spark's 3 s default scaled to our task
// granularity: ten task launches.
func localityWait(cfg cluster.Config) time.Duration {
	return 10 * cfg.TaskLaunch
}

// ExpectedTaskTime is the service time the performance model predicts for a
// task of cost c on a healthy node of cfg: the base TaskTime plus one task
// launch per prior failed attempt, plus the remote-read penalty when the task
// ran without data locality. The straggler analysis compares this against the
// scheduled duration — a task that ran much longer than its cost predicts was
// slowed by its environment (an injected node factor), not by its data.
func ExpectedTaskTime(cfg cluster.Config, c Cost, relaunches int, remote bool) time.Duration {
	d := TaskTime(cfg, c) + time.Duration(relaunches)*cfg.TaskLaunch
	if remote {
		d += remoteReadPenalty(cfg, c)
	}
	return d
}

// remoteReadPenalty is the extra time a non-local task spends pulling its
// input across the network.
func remoteReadPenalty(cfg cluster.Config, c Cost) time.Duration {
	share := float64(cfg.CoresPerNode)
	secs := float64(c.DiskRead) / (cfg.NetBWPerSec / share)
	return time.Duration(secs * float64(time.Second))
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
