package sim

import (
	"fmt"
	"time"

	"yafim/internal/cluster"
)

// TaskTime converts one task's cost into a service duration on the given
// cluster. CPU work runs on a single core at the per-core rate. Disk and
// network traffic move at the per-node bandwidth divided by the node's core
// count: the model assumes every core of a node can be busy simultaneously,
// so each concurrently running task receives an equal bandwidth share. That
// pessimistic-but-fair share keeps the model deterministic and monotone:
// adding nodes adds aggregate bandwidth.
//
// TaskTime panics on a cluster config with non-positive rates or core
// counts: dividing by them would silently turn every downstream makespan
// into Inf/NaN, which is far harder to notice than a loud failure here.
func TaskTime(cfg cluster.Config, c Cost) time.Duration {
	if cfg.CoresPerNode <= 0 || cfg.CPUOpsPerSec <= 0 || cfg.DiskBWPerSec <= 0 || cfg.NetBWPerSec <= 0 {
		panic(fmt.Sprintf("sim: TaskTime on unusable cluster config: %v", cfg.Validate()))
	}
	secs := c.CPUOps / cfg.CPUOpsPerSec
	share := float64(cfg.CoresPerNode)
	secs += float64(c.DiskRead+c.DiskWrite) / (cfg.DiskBWPerSec / share)
	secs += float64(c.Net) / (cfg.NetBWPerSec / share)
	return cfg.TaskLaunch + time.Duration(secs*float64(time.Second))
}
