package sim

import (
	"sort"
	"time"

	"yafim/internal/cluster"
)

// StageOpts tunes one stage's schedule for fault and straggler handling.
// The zero value schedules every node at full speed, excludes none and
// speculates on nothing.
type StageOpts struct {
	// NodeFactor is an optional per-node service-time multiplier (>= 1);
	// tasks placed on a slowed node take factor times as long. Nil or a
	// factor of 1 means full speed. The scheduler places tasks without
	// knowing the factors — exactly like a real cluster, where a degraded
	// node is only discovered by watching its tasks run long — so slowed
	// tasks are rescued by speculation, not avoided up front.
	NodeFactor []float64
	// Exclude marks nodes the scheduler must not place tasks on
	// (blacklisted or dead). If the mask would exclude every node it is
	// ignored rather than deadlocking the stage.
	Exclude []bool
	// Spec enables speculative execution of straggler tasks.
	Spec *SpecPolicy
}

// SpecPolicy is Spark/Hadoop-style task speculation: once a task has run
// Threshold times the stage's median task duration, a backup copy launches
// on the least-loaded core of a different node; whichever copy finishes
// first wins and the other is killed.
type SpecPolicy struct {
	Threshold float64 // multiple of the median task duration (<= 0 disables)
	MinTasks  int     // skip stages smaller than this
}

// SpecStats counts speculative activity in one stage's schedule.
type SpecStats struct {
	Launched int64 // backup copies launched
	Won      int64 // backups that beat the original attempt
}

// PlaceTasksOpts schedules tasks with locality preferences and returns the
// full schedule — one placement per task, indexed like tasks — plus the
// speculation counts and the schedule length (excluding the per-stage
// overhead). It implements the delay-scheduling policy of both Hadoop and
// Spark (spark.locality.wait): a task runs on a preferred node unless that
// would delay it beyond the configured locality wait relative to the best
// core anywhere; when it does run remotely, its input bytes travel over the
// network instead of the local disk, and the task pays for both. Tasks are
// placed longest first (LPT) with all ties broken on the lowest index, so
// the schedule is deterministic. The stage options then apply: excluded
// nodes receive no tasks, slowed nodes stretch the tasks placed on them,
// and the speculation policy launches backup copies of stragglers after the
// main placement.
func PlaceTasksOpts(cfg cluster.Config, tasks []Placed, opts StageOpts) ([]TaskPlacement, SpecStats, time.Duration) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	var stats SpecStats
	if len(tasks) == 0 {
		return nil, stats, 0
	}

	exclude := opts.Exclude
	if allExcluded(cfg.Nodes, exclude) {
		exclude = nil
	}
	excluded := func(node int) bool {
		return exclude != nil && node < len(exclude) && exclude[node]
	}
	factor := func(node int) float64 {
		if node < len(opts.NodeFactor) && opts.NodeFactor[node] > 1 {
			return opts.NodeFactor[node]
		}
		return 1
	}

	// Base service times: the task's cost plus one extra launch per prior
	// failed attempt (re-spawning the task's container/JVM).
	durs := make([]time.Duration, len(tasks))
	for i, t := range tasks {
		durs[i] = TaskTime(cfg, t.Cost) + time.Duration(t.Relaunches)*cfg.TaskLaunch
	}
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return durs[order[a]] > durs[order[b]] })

	placements := make([]TaskPlacement, len(tasks))
	cores := make([]time.Duration, cfg.TotalCores())
	nodeOf := func(core int) int { return core / cfg.CoresPerNode }
	for _, ti := range order {
		best := -1
		for ci := 0; ci < len(cores); ci++ {
			if excluded(nodeOf(ci)) {
				continue
			}
			if best < 0 || cores[ci] < cores[best] {
				best = ci
			}
		}
		chosen := best
		remote := false
		if prefs := tasks[ti].Pref; len(prefs) > 0 {
			// Least-loaded core on a preferred node.
			bestLocal := -1
			for ci := 0; ci < len(cores); ci++ {
				if excluded(nodeOf(ci)) || !contains(prefs, nodeOf(ci)) {
					continue
				}
				if bestLocal < 0 || cores[ci] < cores[bestLocal] {
					bestLocal = ci
				}
			}
			switch {
			case bestLocal >= 0 && cores[bestLocal] <= cores[best]+localityWait(cfg):
				chosen = bestLocal
			default:
				remote = !contains(prefs, nodeOf(best))
			}
		}
		d := time.Duration(float64(durs[ti]) * factor(nodeOf(chosen)))
		if remote {
			d += remoteReadPenalty(cfg, tasks[ti].Cost)
		}
		placements[ti] = TaskPlacement{
			Task:   ti,
			Node:   nodeOf(chosen),
			Core:   chosen % cfg.CoresPerNode,
			Start:  cores[chosen],
			End:    cores[chosen] + d,
			Remote: remote,
		}
		cores[chosen] += d
	}

	if sp := opts.Spec; sp != nil && sp.Threshold > 0 && len(tasks) >= sp.MinTasks && len(tasks) >= 2 {
		stats = speculate(cfg, tasks, durs, placements, cores, *sp, excluded, factor)
	}

	var makespan time.Duration
	for _, load := range cores {
		if load > makespan {
			makespan = load
		}
	}
	return placements, stats, makespan
}

// speculate launches backup copies of straggler tasks onto other nodes,
// in task-index order for determinism, updating placements and core loads
// in place. A backup is detected at start + threshold x median, runs on the
// least-loaded core of a different non-excluded node, and wins only if it
// finishes strictly before the original attempt; a losing backup still
// occupies its core until the original finishes (then it is killed).
func speculate(cfg cluster.Config, tasks []Placed, durs []time.Duration,
	placements []TaskPlacement, cores []time.Duration, sp SpecPolicy,
	excluded func(int) bool, factor func(int) float64) SpecStats {

	var stats SpecStats
	sorted := make([]time.Duration, len(placements))
	for i, p := range placements {
		sorted[i] = p.End - p.Start
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	median := sorted[len(sorted)/2]
	if median <= 0 {
		return stats
	}
	cutoff := time.Duration(float64(median) * sp.Threshold)
	nodeOf := func(core int) int { return core / cfg.CoresPerNode }

	for ti := range tasks {
		p := &placements[ti]
		if p.End-p.Start <= cutoff {
			continue
		}
		detect := p.Start + cutoff
		backup := -1
		for ci := 0; ci < len(cores); ci++ {
			n := nodeOf(ci)
			if n == p.Node || excluded(n) {
				continue
			}
			if backup < 0 || cores[ci] < cores[backup] {
				backup = ci
			}
		}
		if backup < 0 {
			continue // single-node cluster or everything else excluded
		}
		bStart := cores[backup]
		if bStart < detect {
			bStart = detect
		}
		if bStart >= p.End {
			continue // the original finishes before a backup could even start
		}
		bNode := nodeOf(backup)
		bd := time.Duration(float64(durs[ti]) * factor(bNode))
		bRemote := len(tasks[ti].Pref) > 0 && !contains(tasks[ti].Pref, bNode)
		if bRemote {
			bd += remoteReadPenalty(cfg, tasks[ti].Cost)
		}
		bEnd := bStart + bd
		stats.Launched++
		if bEnd < p.End {
			stats.Won++
			// The original attempt is killed when the backup finishes. Its
			// core is only reclaimable if this task was the last thing
			// scheduled there; mid-queue slots stay as scheduled.
			origCore := p.Node*cfg.CoresPerNode + p.Core
			if cores[origCore] == p.End {
				cores[origCore] = bEnd
			}
			p.Node = bNode
			p.Core = backup % cfg.CoresPerNode
			p.Start = bStart
			p.End = bEnd
			p.Remote = bRemote
			cores[backup] = bEnd
		} else {
			// The backup loses and is killed when the original finishes.
			cores[backup] = p.End
		}
	}
	return stats
}

// allExcluded reports whether the mask excludes every node of the cluster.
func allExcluded(nodes int, exclude []bool) bool {
	if exclude == nil {
		return false
	}
	for n := 0; n < nodes; n++ {
		if n >= len(exclude) || !exclude[n] {
			return false
		}
	}
	return true
}

// RunStageResilient builds the StageReport of a named stage — its task
// count, summed cost and makespan including the per-stage overhead — from
// the schedule PlaceTasksOpts computes, and also returns that schedule (the
// per-task placements and run intervals the telemetry layer records as
// task spans) and the stage's speculation counts.
func RunStageResilient(cfg cluster.Config, name string, tasks []Placed, opts StageOpts) (StageReport, []TaskPlacement, SpecStats) {
	var total Cost
	for _, t := range tasks {
		total = total.Add(t.Cost)
	}
	placements, stats, makespan := PlaceTasksOpts(cfg, tasks, opts)
	return StageReport{
		Name:     name,
		Tasks:    len(tasks),
		Total:    total,
		Makespan: cfg.StageOverhead + makespan,
	}, placements, stats
}
