package mapreduce

import (
	"yafim/internal/chaos"
	"yafim/internal/obs"
	"yafim/internal/sim"
)

// SetChaos attaches a seed-driven fault plan to the runner: task attempts
// fail with the plan's probability, reducers lose shuffle fetches (forcing
// full map-task re-execution — MapReduce has no lineage cache), straggler
// nodes run slow, block reads fail on the backing DFS, and the planned node
// crash fires at its virtual time, destroying the node's map output and DFS
// replicas. Mitigation defaults to chaos.Defaults() — speculative execution,
// failure-count blacklisting and DFS re-replication — override it with
// SetResilience. Attach before running jobs.
func (r *Runner) SetChaos(plan *chaos.Plan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	r.drv.SetChaos(plan)
	return nil
}

// SetResilience overrides the mitigation configuration used when a chaos
// plan is attached. The zero Resilience disables speculation, blacklisting
// and re-replication while keeping fault injection active. Attach before
// running jobs.
func (r *Runner) SetResilience(res chaos.Resilience) { r.drv.SetResilience(res) }

// rerunLostMaps schedules the recovery stage for a node crash between the
// map and reduce stages: every map task the schedule had placed on the dead
// node re-runs elsewhere, each paying its full recorded cost plus a fresh
// task launch (the JVM respawn that makes this so much more expensive for
// MapReduce than Spark's lineage recompute). The in-memory outputs are
// reused byte-identically; mapper closures are NOT re-executed, so record
// counters stay exact.
func (r *Runner) rerunLostMaps(job Job, node int, costs []sim.Cost, placements []sim.TaskPlacement) {
	var placed []sim.Placed
	for i, pl := range placements {
		if pl.Node == node {
			placed = append(placed, sim.Placed{Cost: costs[i], Relaunches: 1})
		}
	}
	if len(placed) == 0 {
		return
	}
	r.drv.Schedule(job.Name+":map-recovery", placed, nil, nil)
	r.rec.Add(obs.Counters{StagesRerun: 1})
}
