package main

import (
	"fmt"

	"yafim"
)

// timeline is the distributed runtime's task timeline, reduced from the one
// LiveLog the master and both workers share, so every event is stamped on
// the same clock.
type timeline struct {
	// MapS and ReduceS sum, over completed task attempts, the time from the
	// attempt's lease_grant to its task_complete.
	MapS, ReduceS float64
	// LeaseWaitS sums, over grants, the time from when the task became
	// runnable to its grant. A map is runnable from its job's job_start, a
	// reduce from the job's last map task_complete before the grant.
	LeaseWaitS float64
	// MapGrants and ReduceGrants count lease grants by phase; LocalGrants
	// the map grants whose split the worker already cached.
	MapGrants, ReduceGrants, LocalGrants int
}

// taskKey names one task attempt of one job.
type taskKey struct {
	seq     int
	phase   string
	index   int
	attempt int
}

// localDetail is the lease_grant detail marking a placement-aware grant.
const localDetail = "cached locally"

// reduceTimeline folds the events of any number of jobs into a timeline.
// Events must be in append order, which is timestamp order.
func reduceTimeline(events []yafim.LiveEvent) (timeline, error) {
	var tl timeline
	jobStart := map[int]float64{}
	lastMap := map[int]float64{}
	granted := map[taskKey]float64{}
	for _, ev := range events {
		// LiveEvent.Task is the task index offset by one so that index 0
		// survives omitempty.
		key := taskKey{seq: ev.Seq, phase: ev.Phase, index: ev.Task - 1, attempt: ev.Attempt}
		switch ev.Event {
		case "job_start":
			jobStart[ev.Seq] = ev.TsMs
		case "lease_grant":
			var runnable float64
			var ok bool
			switch ev.Phase {
			case "map":
				runnable, ok = jobStart[ev.Seq]
				tl.MapGrants++
				if ev.Detail == localDetail {
					tl.LocalGrants++
				}
			case "reduce":
				runnable, ok = lastMap[ev.Seq]
				tl.ReduceGrants++
			}
			if !ok {
				return tl, fmt.Errorf("timeline: %s grant of job %d task %d before the task was runnable",
					ev.Phase, ev.Seq, key.index)
			}
			tl.LeaseWaitS += (ev.TsMs - runnable) / 1e3
			granted[key] = ev.TsMs
		case "task_complete":
			at, ok := granted[key]
			if !ok {
				return tl, fmt.Errorf("timeline: %s task %d attempt %d of job %d completed without a grant",
					ev.Phase, key.index, ev.Attempt, ev.Seq)
			}
			busy := (ev.TsMs - at) / 1e3
			if ev.Phase == "map" {
				tl.MapS += busy
				lastMap[ev.Seq] = ev.TsMs
			} else {
				tl.ReduceS += busy
			}
		}
	}
	return tl, nil
}
