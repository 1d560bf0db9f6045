package rdd

import (
	"errors"
	"fmt"
	"sync"

	"yafim/internal/obs"
	"yafim/internal/sim"
)

// shufflePhase is the lifecycle state of one shuffle's map-side output.
// The legal transitions form the state machine documented in DESIGN.md:
//
//	pending ──map stage ok──▶ mapped ──FreeShuffles/Close──▶ freed
//	   ▲                        │ ▲
//	   │                        │ └──KillNode drops slices; recovery refills──┘
//	   └──────map stage failed──┴──────────────────────────▶ invalidated
//
// freed and invalidated both re-run the map stage on the next action; they
// are distinct states only so telemetry can tell reclamation (deliberate,
// free) from failure (an error the lineage recovers from).
type shufflePhase int

const (
	shufflePending     shufflePhase = iota // map stage has never run
	shuffleMapped                          // map output resident (possibly with node-loss holes)
	shuffleFreed                           // output reclaimed; next action re-runs the map stage
	shuffleInvalidated                     // map stage failed or was canceled; next action retries
)

// shuffleMissingError is a reduce-side fetch failure: a task went to read
// shuffle map output and found it gone (a node loss between the map stage
// and the read, or a read before any map stage ran). Like Spark's
// FetchFailedException it is not retried at the task level — retrying the
// fetch cannot regenerate the data — instead the driver re-prepares the
// lineage (recovering exactly the missing map partitions) and resubmits the
// stage.
type shuffleMissingError struct {
	name string
}

func (e *shuffleMissingError) Error() string {
	return fmt.Sprintf("rdd: %s: shuffle map output missing at read", e.name)
}

func isShuffleMissing(err error) bool {
	var miss *shuffleMissingError
	return errors.As(err, &miss)
}

// maxStageResubmits bounds how many times an action re-prepares and
// resubmits after reduce-side fetch failures, mirroring Spark's stage
// attempt limit. One planned node crash needs one resubmission; the bound
// only stops a pathological loop.
const maxStageResubmits = 4

// shuffleCore is the non-generic lifecycle bookkeeping of one ReduceByKey
// shuffle. The generic operator owns the typed runs; the core owns the
// phase, the per-map-task residency and spill accounting, and the Context
// registration that makes error invalidation, node-loss recovery and
// reclamation work.
//
// Map task p's output is considered resident on virtual node p mod nodes,
// the same placement convention cacheState uses, so KillNode destroys
// exactly the slices a real executor loss would.
type shuffleCore struct {
	ctx  *Context
	name string

	mu       sync.Mutex
	phase    shufflePhase
	present  []bool  // map task output resident
	mapBytes []int64 // per-map-task resident spill bytes

	// dropData releases the typed runs of one map task; dropAll releases
	// them all. Both run with mu held and must not call back into the core.
	dropData func(mapTask int)
	dropAll  func()
}

// newShuffleCore creates the lifecycle state for one shuffle with the given
// map-side task count and registers it with the context, which drives node
// loss (KillNode), reclamation (FreeShuffles, Close) and accounting.
func newShuffleCore(ctx *Context, name string, mapTasks int,
	dropData func(mapTask int), dropAll func()) *shuffleCore {
	st := &shuffleCore{
		ctx:      ctx,
		name:     name,
		present:  make([]bool, mapTasks),
		mapBytes: make([]int64, mapTasks),
		dropData: dropData,
		dropAll:  dropAll,
	}
	ctx.registerShuffle(st)
	return st
}

// plan decides what the next prepare must execute: the full map stage
// (first run, after an error, or after reclamation) or a recovery run of
// just the map tasks whose output a node loss destroyed. An empty missing
// list with runAll false means the shuffle is ready as is.
func (st *shuffleCore) plan() (missing []int, runAll bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.phase != shuffleMapped {
		return nil, true
	}
	for p, ok := range st.present {
		if !ok {
			missing = append(missing, p)
		}
	}
	return missing, false
}

// ready reports whether every map task's output is resident, i.e. a reduce
// task may fetch. prepare establishes this before any compute runs.
func (st *shuffleCore) ready() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.phase != shuffleMapped {
		return false
	}
	for _, ok := range st.present {
		if !ok {
			return false
		}
	}
	return true
}

// commit records map tasks whose output just became resident, with their
// spill bytes, moving the shuffle to mapped and charging the context's
// per-node residency. parts is nil to commit every map task (a full run).
func (st *shuffleCore) commit(parts []int, bytes []int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.phase = shuffleMapped
	if parts == nil {
		for p := range st.present {
			st.commitLocked(p, bytes[p])
		}
		return
	}
	for i, p := range parts {
		st.commitLocked(p, bytes[i])
	}
}

func (st *shuffleCore) commitLocked(p int, n int64) {
	if st.present[p] {
		st.ctx.shuffleAccount(p, -st.mapBytes[p])
	}
	st.present[p] = true
	st.mapBytes[p] = n
	st.ctx.shuffleAccount(p, n)
}

// invalidate resets the shuffle after a failed or canceled map stage: any
// partial output is dropped and the next action re-runs the stage instead
// of replaying the stale error. This is the write-once-bug fix.
func (st *shuffleCore) invalidate() {
	st.releaseAll(shuffleInvalidated)
}

// free reclaims the shuffle's resident map output (the facade's
// pass-boundary hook, Close). The lineage stays valid: a later action
// re-runs the map stage.
func (st *shuffleCore) free() {
	st.releaseAll(shuffleFreed)
}

func (st *shuffleCore) releaseAll(to shufflePhase) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.phase == shufflePending {
		// Nothing ever ran: keep pending as pending so a never-run shuffle
		// does not pretend it was freed or failed.
		return
	}
	var freed, freedBytes int64
	for p, ok := range st.present {
		if !ok {
			continue
		}
		st.ctx.shuffleAccount(p, -st.mapBytes[p])
		freed++
		freedBytes += st.mapBytes[p]
		st.present[p] = false
		st.mapBytes[p] = 0
	}
	st.dropAll()
	st.phase = to
	if to == shuffleFreed && freed > 0 {
		st.ctx.rec.Add(obs.Counters{ShuffleFrees: freed})
		st.ctx.rec.AddEvent("shuffle_free", st.name, freed, freedBytes)
	}
}

// dropNode destroys the map-output slices resident on a lost node. The
// shuffle stays mapped; the next action's prepare detects the holes and
// re-runs exactly the missing map tasks from lineage.
func (st *shuffleCore) dropNode(node, nodes int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.phase != shuffleMapped {
		return
	}
	var dropped, droppedBytes int64
	for p, ok := range st.present {
		if !ok || p%nodes != node {
			continue
		}
		st.ctx.shuffleAccount(p, -st.mapBytes[p])
		dropped++
		droppedBytes += st.mapBytes[p]
		st.present[p] = false
		st.mapBytes[p] = 0
		st.dropData(p)
	}
	if dropped > 0 {
		st.ctx.rec.Add(obs.Counters{ShuffleFrees: dropped})
		st.ctx.rec.AddEvent("shuffle_drop", st.name, dropped, droppedBytes)
	}
}

// recover runs the lineage-driven re-execution of the missing map tasks:
// a sub-stage over just those partitions, charged like the chaos
// fetch-failure path (the reduce's fetch found the output gone, so the
// parent partitions are rematerialised — cache hits when cached — and the
// map-side combine and spill are paid again).
func (st *shuffleCore) recover(missing []int, prefs [][]int, lineage []string,
	runMap func(p int, led *sim.Ledger) error, partBytes func(p int) int64) error {
	ctx := st.ctx
	ctx.rec.Add(obs.Counters{FetchFailures: int64(len(missing)), StagesRerun: 1})
	var sub [][]int
	if prefs != nil {
		sub = make([][]int, len(missing))
		for i, p := range missing {
			if p < len(prefs) {
				sub[i] = prefs[p]
			}
		}
	}
	err := ctx.runTasks(st.name+":map-recover", lineage, len(missing), sub,
		func(i int, led *sim.Ledger) error { return runMap(missing[i], led) })
	if err != nil {
		st.invalidate()
		return err
	}
	bytes := make([]int64, len(missing))
	for i, p := range missing {
		bytes[i] = partBytes(p)
	}
	st.commit(missing, bytes)
	ctx.rec.Add(obs.Counters{MapReruns: int64(len(missing))})
	return nil
}
