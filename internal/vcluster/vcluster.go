// Package vcluster is the virtual cluster under both simulated engines. One
// Driver runs every stage of the RDD engine (internal/rdd) and of the
// MapReduce engine (internal/mapreduce) by the same rules: tasks execute for
// real on a goroutine pool with panic isolation, cooperative cancellation
// and a bounded attempt count; the chaos plan kills attempts, slows nodes
// and crashes one node at its virtual time; failed attempts blacklist their
// nodes; and each stage's task costs, wasted attempts included, become a
// deterministic makespan on the configured cluster, recorded as telemetry
// and charged to the open job on the driver's clock.
//
// The engines keep only what really differs between them: what a task
// computes, how lost output is recovered (RDD lineage against MapReduce's
// map re-run), what a job pays at startup, and how a test injects a task
// failure.
package vcluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"yafim/internal/chaos"
	"yafim/internal/cluster"
	"yafim/internal/dfs"
	"yafim/internal/exec"
	"yafim/internal/obs"
	"yafim/internal/sim"
)

// MaxTaskAttempts mirrors Hadoop's and Spark's default of four attempts per
// task.
const MaxTaskAttempts = 4

// Driver runs one engine's jobs on a simulated cluster and keeps their
// virtual clock. Jobs run one at a time, as on a Spark driver thread or a
// Hadoop client; the tasks of a stage run concurrently.
type Driver struct {
	cfg     cluster.Config
	engine  string         // "rdd" or "mapreduce": names errors and job spans
	onCrash func(node int) // the engine's share of a node crash; may be nil
	rec     *obs.Recorder  // nil disables telemetry

	// Chaos state: plan, resil and health are set before jobs run;
	// crashDone changes only at stage boundaries.
	plan      *chaos.Plan
	resil     chaos.Resilience
	resilSet  bool
	health    *chaos.NodeHealth
	crashDone bool

	mu      sync.Mutex
	fss     []*dfs.FileSystem // crash with a node; receive the plan's read faults
	reports []sim.JobReport
	current *sim.JobReport // the open job
	pending time.Duration  // overhead charged to the next job
}

// New creates a driver for the given cluster. engine names the engine in
// errors and telemetry; onCrash (may be nil) runs when the chaos plan's node
// crash fires, to drop whatever the engine keeps on that node.
func New(cfg cluster.Config, engine string, onCrash func(node int)) *Driver {
	return &Driver{cfg: cfg, engine: engine, onCrash: onCrash}
}

// SetRecorder attaches a telemetry recorder (nil disables telemetry).
func (d *Driver) SetRecorder(rec *obs.Recorder) { d.rec = rec }

// SetChaos attaches a fault plan, nil for none; the caller validates it.
// Mitigation defaults to chaos.Defaults() unless SetResilience said
// otherwise, and every attached filesystem gets the plan's read faults.
func (d *Driver) SetChaos(plan *chaos.Plan) {
	d.plan = plan
	if !d.resilSet {
		d.resil = chaos.Defaults()
	}
	d.health = nil
	if plan == nil {
		return
	}
	d.health = chaos.NewNodeHealth(d.cfg.Nodes, d.resil)
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, fs := range d.fss {
		fs.SetChaos(plan)
	}
}

// SetResilience overrides the mitigation configuration used under a chaos
// plan, before or after SetChaos.
func (d *Driver) SetResilience(r chaos.Resilience) {
	d.resil, d.resilSet = r, true
	if d.health != nil {
		d.health = chaos.NewNodeHealth(d.cfg.Nodes, r)
	}
}

// ChaosPlan returns the attached fault plan (nil when chaos is disabled).
func (d *Driver) ChaosPlan() *chaos.Plan { return d.plan }

// AttachFS ties a filesystem to the cluster: the plan's node crash destroys
// its replicas on the dead node, and the plan's block-read faults reach it.
// Attaching the same filesystem twice is a no-op.
func (d *Driver) AttachFS(fs *dfs.FileSystem) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if slices.Contains(d.fss, fs) {
		return
	}
	d.fss = append(d.fss, fs)
	if d.plan != nil {
		fs.SetChaos(d.plan)
	}
}

// MarkDead permanently excludes a lost node from scheduling (a no-op
// without a chaos plan).
func (d *Driver) MarkDead(node int) { d.health.MarkDead(node) }

// BeginJob opens a job. Its overhead is startup plus any overhead charged
// while no job was open.
func (d *Driver) BeginJob(name string, startup time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.current != nil {
		panic(d.engine + ": nested or concurrent jobs on one driver")
	}
	d.current = &sim.JobReport{Name: name, Overhead: d.pending + startup}
	d.pending = 0
	d.rec.BeginJob(d.engine, name)
}

// EndJob closes the open job and returns its report, which Reports now
// includes.
func (d *Driver) EndJob() sim.JobReport {
	d.mu.Lock()
	defer d.mu.Unlock()
	rep := *d.current
	d.current = nil
	d.reports = append(d.reports, rep)
	d.rec.EndJob(rep.Overhead)
	return rep
}

// AbortJob drops the open job, if any, without a report.
func (d *Driver) AbortJob() {
	d.mu.Lock()
	d.current = nil
	d.mu.Unlock()
}

// AddOverhead charges driver-side virtual time to the open job, or to the
// next job when none is open.
func (d *Driver) AddOverhead(t time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.current != nil {
		d.current.Overhead += t
	} else {
		d.pending += t
	}
}

// Reports returns the report of every finished job, in order.
func (d *Driver) Reports() []sim.JobReport {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]sim.JobReport, len(d.reports))
	copy(out, d.reports)
	return out
}

// NumJobs returns how many jobs have finished: a mark for DurationSince.
func (d *Driver) NumJobs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.reports)
}

// DurationSince sums the virtual durations of the jobs finished after the
// first mark ones.
func (d *Driver) DurationSince(mark int) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	var t time.Duration
	for _, r := range d.reports[mark:] {
		t += r.Duration()
	}
	return t
}

// TotalDuration sums the virtual durations of all finished jobs.
func (d *Driver) TotalDuration() time.Duration { return d.DurationSince(0) }

// virtualNow returns the position on the virtual timeline: every finished
// job plus the open job's overhead and completed stages. It is stable for
// the duration of one stage (stages are appended only after all their tasks
// finish), which keeps crash and blacklist decisions deterministic under
// concurrent task execution.
func (d *Driver) virtualNow() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	var t time.Duration
	for _, r := range d.reports {
		t += r.Duration()
	}
	if d.current != nil {
		t += d.current.Overhead
		for _, s := range d.current.Stages {
			t += s.Makespan
		}
	}
	return t
}

// MaybeCrash fires the plan's node crash once the virtual clock has passed
// its time, and reports the dead node when it fired at this call. The node
// is permanently excluded from scheduling, the engine drops what it held
// there, and the attached filesystems lose its replicas (re-replicated when
// mitigation says so, the repair traffic charged to the open job). RunStage
// calls it at every stage boundary.
func (d *Driver) MaybeCrash() (int, bool) {
	plan := d.plan
	if plan == nil || plan.Crash == nil || d.crashDone {
		return -1, false
	}
	node := plan.Crash.Node
	if node < 0 || node >= d.cfg.Nodes || d.virtualNow() < plan.Crash.At {
		return -1, false
	}
	d.crashDone = true
	d.health.MarkDead(node)
	if d.onCrash != nil {
		d.onCrash(node)
	}
	d.mu.Lock()
	fss := slices.Clone(d.fss)
	d.mu.Unlock()
	var repaired int64
	for _, fs := range fss {
		_, bytes := fs.KillNode(node, d.resil.ReReplicate)
		repaired += bytes
	}
	if repaired > 0 {
		secs := float64(repaired) / d.cfg.NetBWPerSec
		d.AddOverhead(time.Duration(secs * float64(time.Second)))
	}
	return node, true
}

// Stage describes one stage of tasks for RunStage.
type Stage struct {
	Name    string   // names the schedule, the spans and the chaos decisions
	Tasks   int      // task count
	Prefs   [][]int  // optional per-task nodes holding the task's input
	Lineage []string // dataset chain feeding the stage, for its StageError
	// NoRetry reports a task error that no retry can cure, such as shuffle
	// output that is gone; the task then fails the stage at once.
	NoRetry func(error) bool
}

// RunStage runs one stage in the open job: it fires a due node crash, runs
// work for every task on the worker pool, and schedules the stage. Each
// attempt gets a fresh ledger. A failed attempt is retried up to
// MaxTaskAttempts, its cost wasted; a panic in work fails the attempt as an
// *exec.TaskError. After an attempt's work succeeds the chaos plan may still
// kill it (the executor dies before reporting), never on the last permitted
// attempt: the plan degrades jobs, it cannot fail them. A canceled ctx
// stops each task at its next attempt without retrying.
//
// It returns each task's successful-attempt cost and placement, or an
// *exec.StageError when the stage cannot complete.
func (d *Driver) RunStage(ctx context.Context, st Stage, work func(task int, led *sim.Ledger) error) ([]sim.Cost, []sim.TaskPlacement, error) {
	if err := exec.ContextErr(ctx); err != nil {
		d.rec.AddCancellations(1)
		return nil, nil, &exec.StageError{Engine: d.engine, Stage: st.Name, Lineage: st.Lineage, Err: err}
	}
	d.MaybeCrash()

	n := st.Tasks
	costs := make([]sim.Cost, n)
	wasted := make([]sim.Cost, n)
	attempts := make([]int, n)
	errs := make([]error, n)
	var panics atomic.Int64
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for t := 0; t < n; t++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(t int) {
			defer wg.Done()
			defer func() { <-sem }()
			var lastErr error
			for attempt := 1; attempt <= MaxTaskAttempts; attempt++ {
				if err := exec.ContextErr(ctx); err != nil {
					errs[t] = err
					return
				}
				led := &sim.Ledger{}
				lastErr = exec.Guard(d.engine, st.Name, t, attempt, func() error { return work(t, led) })
				attempts[t] = attempt
				var te *exec.TaskError
				if errors.As(lastErr, &te) && te.Panicked() {
					panics.Add(1)
				}
				if lastErr == nil && attempt < MaxTaskAttempts && d.plan.TaskFails(st.Name, t, attempt) {
					lastErr = &chaos.InjectedError{Stage: st.Name, Task: t, Attempt: attempt}
				}
				if lastErr == nil {
					costs[t] = led.Total()
					return
				}
				if exec.IsCancellation(lastErr) || (st.NoRetry != nil && st.NoRetry(lastErr)) {
					// Retrying would only delay the shutdown, or cannot
					// regenerate what is gone.
					errs[t] = lastErr
					return
				}
				// A failed attempt still occupied its core: its work is
				// charged to the task as wasted cost.
				wasted[t] = wasted[t].Add(led.Total())
			}
			errs[t] = fmt.Errorf("task %d failed after %d attempts: %w", t, MaxTaskAttempts, lastErr)
		}(t)
	}
	wg.Wait()

	d.rec.AddTaskPanics(panics.Load())
	if err := errors.Join(errs...); err != nil {
		// One representative cancellation instead of the join: every aborted
		// task carries the same context error.
		if cause := exec.CollapseCancellation(errs); cause != nil {
			d.rec.AddCancellations(1)
			return nil, nil, &exec.StageError{Engine: d.engine, Stage: st.Name, Lineage: st.Lineage, Err: cause}
		}
		return nil, nil, &exec.StageError{Engine: d.engine, Stage: st.Name, Attempts: MaxTaskAttempts,
			Lineage: st.Lineage, Err: err}
	}
	placed := make([]sim.Placed, n)
	for i, cost := range costs {
		// Retried tasks run their attempts back to back on one core, and
		// each retry re-dispatches the task (cheap on resident Spark
		// executors, expensive on per-task MapReduce JVMs).
		placed[i] = sim.Placed{Cost: cost.Add(wasted[i]), Relaunches: attempts[i] - 1}
		if i < len(st.Prefs) {
			placed[i].Pref = st.Prefs[i]
		}
	}
	return costs, d.Schedule(st.Name, placed, attempts, wasted), nil
}

// Schedule places one stage's tasks on the cluster, under the chaos plan's
// straggler factors, the blacklisted and dead nodes and the speculation
// policy, appends the stage to the open job and records its telemetry.
// attempts holds each task's attempt count (nil: one each) and wasted the
// cost of its failed attempts (nil: none). RunStage calls it; an engine
// calls it directly only for a stage of tasks it re-runs at their recorded
// cost.
func (d *Driver) Schedule(name string, placed []sim.Placed, attempts []int, wasted []sim.Cost) []sim.TaskPlacement {
	if attempts == nil {
		attempts = make([]int, len(placed))
		for i := range attempts {
			attempts[i] = 1
		}
	}
	d.noteFailures(name, attempts)
	rep, placements, spec := sim.RunStageResilient(d.cfg, name, placed, d.stageOpts())
	d.mu.Lock()
	if d.current == nil {
		d.mu.Unlock()
		panic(d.engine + ": stage executed outside any job")
	}
	d.current.Stages = append(d.current.Stages, rep)
	d.mu.Unlock()
	d.recordStage(rep, placed, placements, attempts, wasted)
	d.rec.AddSpeculation(spec.Launched, spec.Won)
	return placements
}

// noteFailures attributes a stage's failed task attempts to nodes for
// blacklisting, in deterministic (task, attempt) order after all tasks have
// finished. Failed attempts of any cause count, injected or manual, since a
// real scheduler cannot tell them apart either.
func (d *Driver) noteFailures(stage string, attempts []int) {
	if d.health == nil {
		return
	}
	now := d.virtualNow()
	var listings int64
	for t, a := range attempts {
		for attempt := 1; attempt < a; attempt++ {
			node := d.plan.FailureNode(stage, t, attempt, d.cfg.Nodes)
			if d.health.RecordFailure(node, now) {
				listings++
			}
		}
	}
	d.rec.AddBlacklistings(listings)
}

// stageOpts assembles the resilience options for the next stage's schedule:
// the plan's straggler factors, the currently blacklisted or dead nodes, and
// the speculation policy.
func (d *Driver) stageOpts() sim.StageOpts {
	if d.plan == nil {
		return sim.StageOpts{}
	}
	opts := sim.StageOpts{
		NodeFactor: d.plan.NodeFactors(d.cfg.Nodes),
		Exclude:    d.health.Excluded(d.virtualNow()),
	}
	if d.resil.SpecThreshold > 0 {
		opts.Spec = &sim.SpecPolicy{
			Threshold: d.resil.SpecThreshold,
			MinTasks:  d.resil.SpecMinTasks,
		}
	}
	return opts
}

// recordStage converts one scheduled stage into telemetry: a stage span with
// per-task spans, plus retry, wasted-cost and locality counters.
func (d *Driver) recordStage(rep sim.StageReport, placed []sim.Placed,
	placements []sim.TaskPlacement, attempts []int, wasted []sim.Cost) {
	if d.rec == nil {
		return
	}
	costs := make([]sim.Cost, len(placed))
	for i := range placed {
		costs[i] = placed[i].Cost
	}
	d.rec.AddStage(obs.SpanFromSchedule(rep, d.cfg.StageOverhead, placements, costs, attempts))
	var retries, local, remote int64
	var waste sim.Cost
	for i := range placements {
		if attempts[i] > 1 {
			retries += int64(attempts[i] - 1)
			waste = waste.Add(wasted[i])
		}
		if len(placed[i].Pref) > 0 {
			if placements[i].Remote {
				remote++
			} else {
				local++
			}
		}
	}
	if retries > 0 {
		d.rec.AddRetries(retries, waste)
	}
	if local > 0 || remote > 0 {
		d.rec.AddLocality(local, remote)
	}
}
